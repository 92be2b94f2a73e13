// Package core implements the paper's contribution: cache write-path
// controllers for 8T SRAM arrays.
//
// All controllers share the same functional substrate (a write-allocate,
// write-back cache over shadow memory) and differ only in how many SRAM
// array operations each request costs:
//
//   - Conventional: the 6T reference — every write is a single array access.
//   - RMW: the 8T baseline (Morita et al.) — every write is a read-modify-
//     write, two array accesses, occupying both ports.
//   - LocalRMW: Park et al.'s ablation — same traffic as RMW but the
//     write-back is contained in one sub-array.
//   - WordGranularity: Chang et al.'s ablation — non-interleaved array,
//     single-access writes, multi-bit-ECC/area penalty tracked elsewhere.
//   - WG: the paper's Write Grouping (§4.1, Algorithm 1).
//   - WGRB: Write Grouping + Read Bypassing (§4.2).
//
// So one walk of the cache (walk.go) serves every scheme, and each scheme is
// an accountant (account.go) of the array operations the walk's outcomes
// cost it.
package core

import (
	"fmt"

	"cache8t/internal/cache"
	"cache8t/internal/sram"
	"cache8t/internal/trace"
)

// Kind identifies a controller implementation.
type Kind uint8

const (
	// Conventional is the 6T-style single-access-write reference.
	Conventional Kind = iota
	// RMW is the 8T read-modify-write baseline.
	RMW
	// LocalRMW is Park et al.'s sub-array-local write-back.
	LocalRMW
	// WordGranularity is Chang et al.'s non-interleaved organization.
	WordGranularity
	// WG is the paper's Write Grouping.
	WG
	// WGRB is Write Grouping + Read Bypassing.
	WGRB
	// Coalesce is a conventional block-granular coalescing write buffer in
	// front of RMW — the A4 ablation isolating WG's set-granularity.
	Coalesce
	// KindTS is a timing-speculation controller modeled on TS Cache
	// (arXiv:1904.11200): the rival low-voltage approach, where reads
	// complete speculatively against aggressive timing and a deterministic
	// mis-speculation model replays the offending read through the array.
	// Writes take the plain RMW path, so KindTS sits on the same
	// access-frequency axis as the paper's schemes.
	KindTS
)

// String names the controller kind.
func (k Kind) String() string {
	switch k {
	case Conventional:
		return "Conventional"
	case RMW:
		return "RMW"
	case LocalRMW:
		return "LocalRMW"
	case WordGranularity:
		return "WordGranularity"
	case WG:
		return "WG"
	case WGRB:
		return "WG+RB"
	case Coalesce:
		return "Coalesce"
	case KindTS:
		return "TS"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// ParseKind converts a CLI name into a Kind.
func ParseKind(name string) (Kind, error) {
	switch name {
	case "conventional", "6t", "Conventional":
		return Conventional, nil
	case "rmw", "RMW":
		return RMW, nil
	case "localrmw", "LocalRMW":
		return LocalRMW, nil
	case "word", "wordgranularity", "WordGranularity":
		return WordGranularity, nil
	case "wg", "WG":
		return WG, nil
	case "wgrb", "wg+rb", "WGRB", "WG+RB":
		return WGRB, nil
	case "coalesce", "Coalesce":
		return Coalesce, nil
	case "ts", "TS":
		return KindTS, nil
	default:
		return 0, fmt.Errorf("core: unknown controller %q", name)
	}
}

// Kinds returns all controller kinds in presentation order.
func Kinds() []Kind {
	return []Kind{Conventional, RMW, LocalRMW, WordGranularity, Coalesce, WG, WGRB, KindTS}
}

// Options tune one scheme's accounting (Scheme). None changes what the cache
// holds, so schemes that differ only in options share a walk.
type Options struct {
	// BufferDepth is the number of Set-Buffer entries for WG/WGRB. The
	// paper uses exactly 1; larger depths are the A2 ablation. Ignored by
	// other controllers. Zero means 1.
	BufferDepth int
	// DisableSilentElision turns off the Dirty-bit silent-write
	// optimization in WG/WGRB (A1 ablation: every buffered set writes back
	// even if all its writes were silent).
	DisableSilentElision bool
	// CountFillTraffic adds miss-handling array traffic (line fills and
	// dirty evictions) to the array-access totals at Finalize. The paper's
	// Pin tool counts request traffic only, so this defaults to off.
	CountFillTraffic bool
}

// Scheme is one write path a run accounts for: a controller kind with its
// own options. No scheme changes what the cache holds (DESIGN.md §5), so one
// walk of a cache shape serves any list of schemes, options and all.
type Scheme struct {
	Kind Kind
	Opts Options
}

// Schemes pairs each of kinds with opts, in order.
func Schemes(opts Options, kinds ...Kind) []Scheme {
	out := make([]Scheme, len(kinds))
	for i, k := range kinds {
		out[i] = Scheme{Kind: k, Opts: opts}
	}
	return out
}

// Counters are the per-run event counts a controller accumulates beyond the
// raw array event ledger.
type Counters struct {
	DemandReads  uint64 // read requests processed
	DemandWrites uint64 // write requests processed

	TagProbes uint64 // Tag-Buffer comparator activations
	TagHits   uint64 // requests whose set+tag matched a Set-Buffer entry

	GroupedWrites    uint64 // writes absorbed by an already-filled Set-Buffer
	SilentWrites     uint64 // writes detected as silent by the comparators
	SilentElidedWBs  uint64 // Set-Buffer write-backs skipped via clear Dirty
	PrematureWBs     uint64 // write-backs forced early by a read Tag-Buffer hit
	BypassedReads    uint64 // reads served from the Set-Buffer (WG+RB only)
	BufferFills      uint64 // Set-Buffer row-read fills
	BufferWritebacks uint64 // Set-Buffer row-write write-backs actually done

	// GroupSizes histograms write groups by size at buffer eviction:
	// buckets for 1, 2, 3-4, 5-8, and 9+ writes per group.
	GroupSizes [5]uint64
}

// recordGroup buckets one closed write group of n writes.
func (c *Counters) recordGroup(n uint64) {
	switch {
	case n <= 1:
		c.GroupSizes[0]++
	case n == 2:
		c.GroupSizes[1]++
	case n <= 4:
		c.GroupSizes[2]++
	case n <= 8:
		c.GroupSizes[3]++
	default:
		c.GroupSizes[4]++
	}
}

// MeanGroupSize returns buffered writes per group (groups of size >= 1).
func (c Counters) MeanGroupSize() float64 {
	var groups uint64
	for _, g := range c.GroupSizes {
		groups += g
	}
	if groups == 0 {
		return 0
	}
	return float64(c.GroupedWrites+c.BufferFills) / float64(groups)
}

// Result is the outcome of running one controller over one request stream.
type Result struct {
	Controller Kind
	Geometry   cache.Geometry
	Requests   trace.Stats
	Cache      cache.Stats
	Counters   Counters

	// ArrayReads/ArrayWrites are row-level array operations, the paper's
	// "cache accesses". ArrayAccesses = ArrayReads + ArrayWrites.
	ArrayReads  uint64
	ArrayWrites uint64

	// LocalWriteback marks results whose write phase is contained to one
	// sub-array (Park et al.), for the timing model.
	LocalWriteback bool

	// Events is the full circuit-level event ledger for energy accounting.
	Events *sram.Array
}

// ArrayAccesses returns total array operations — the quantity Figures 9-11
// report reductions of.
func (r Result) ArrayAccesses() uint64 { return r.ArrayReads + r.ArrayWrites }

// AccessesPerRequest returns array operations per demand request.
func (r Result) AccessesPerRequest() float64 {
	if n := r.Requests.Accesses(); n > 0 {
		return float64(r.ArrayAccesses()) / float64(n)
	}
	return 0
}

// Controller consumes a request stream against a cache, accounting array
// traffic according to one write-path scheme. The package builds one
// implementation; the interface is what RunLogged's port-op logger wraps.
type Controller interface {
	// Kind identifies the scheme.
	Kind() Kind
	// Access processes one request and returns the value read (reads) or
	// the value now stored (writes); used by correctness verification.
	Access(a trace.Access) uint64
	// Finalize drains internal buffers (Set-Buffer write-back) and returns
	// the run's Result. The controller must not be used afterwards.
	Finalize() Result
}

// New builds a controller of the given kind over c.
func New(kind Kind, c *cache.Cache, opts Options) (Controller, error) {
	return newController(c, Scheme{Kind: kind, Opts: opts})
}

// controller is the one Controller: a walk of the cache (walk.go), and one
// accountant (account.go) for each scheme it serves. A multi-scheme run has
// several accountants over its one walk; everything else has one.
type controller struct {
	walk  walk
	accts accountants
	// one and oneOut hold the access Access is serving, so it is charged
	// through the batch entry without allocating.
	one    [1]trace.Access
	oneOut [1]outcome
}

// newController builds a walk of c and an accountant for each scheme.
func newController(c *cache.Cache, schemes ...Scheme) (*controller, error) {
	if c == nil {
		return nil, fmt.Errorf("core: nil cache")
	}
	accts, err := newAccountants(c.Geometry(), schemes)
	if err != nil {
		return nil, err
	}
	return &controller{walk: newWalk(c), accts: accts}, nil
}

// Kind identifies the (first) scheme.
func (c *controller) Kind() Kind { return c.accts[0].book().kind }

// Access walks one request, then charges it to every accountant.
func (c *controller) Access(a trace.Access) uint64 {
	v, o := c.walk.step(&a)
	c.one[0], c.oneOut[0] = a, o
	c.accts.charge(c.one[:], c.oneOut[:])
	return v
}

// feed is Access over a whole batch: one walk of it, then every accountant
// charges the outcomes.
func (c *controller) feed(batch []trace.Access) {
	c.accts.charge(batch, c.walk.batch(batch))
}

// Finalize returns the (first) scheme's Result.
func (c *controller) Finalize() Result { return c.results()[0] }

// results drains every accountant and returns their Results in scheme
// order.
func (c *controller) results() []Result { return c.accts.results(c.walk.cache.Stats()) }

// newArrayFor derives the SRAM organization implied by a controller choice:
// one row per cache set, bit-interleaved by the associativity except for the
// WordGranularity scheme, which forgoes interleaving (and thereby RMW) at
// the cost of multi-bit soft-error exposure.
func newArrayFor(kind Kind, g cache.Geometry) (*sram.Array, error) {
	cell := sram.EightT
	if kind == Conventional {
		cell = sram.SixT
	}
	interleave := g.Ways
	if kind == WordGranularity {
		interleave = 1
	}
	// Sets is a power of two, so min(4, sets) always divides it.
	subarrays := 4
	if g.Sets < subarrays {
		subarrays = g.Sets
	}
	return sram.NewArray(sram.ArrayConfig{
		Cell:       cell,
		Rows:       g.Sets,
		Cols:       g.SetBytes() * 8,
		Interleave: interleave,
		Subarrays:  subarrays,
	})
}
