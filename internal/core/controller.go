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

// SetLocal reports whether this kind's controller factors across cache sets:
// every observable effect of an access (cache mutation, counters, array
// events, memory traffic) depends only on the subsequence of accesses to
// that access's set. Set-local controllers can be sharded by set index
// (RunShardedContext) with byte-identical merged results. The direct
// (Conventional, WordGranularity) and RMW (RMW, LocalRMW) controllers
// qualify; the WG family's Set-Buffer and the coalescer's pending-write
// window carry global cross-set state — which set is buffered next depends
// on the interleaving of *all* sets' accesses — so they must run serially.
// KindTS's replay schedule counts reads globally (every R-th read
// mis-speculates regardless of set), so it is not set-local either.
func (k Kind) SetLocal() bool {
	switch k {
	case Conventional, WordGranularity, RMW, LocalRMW:
		return true
	default:
		return false
	}
}

// Options tune behaviours shared by every controller.
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
// traffic according to one write-path scheme.
type Controller interface {
	// Kind identifies the scheme.
	Kind() Kind
	// Access processes one request and returns the value read (reads) or
	// the value now stored (writes); used by correctness verification.
	Access(a trace.Access) uint64
	// SetLocal reports whether the controller's effects factor across cache
	// sets (see Kind.SetLocal) — the capability the sharded driver checks
	// before partitioning a run by set index.
	SetLocal() bool
	// Finalize drains internal buffers (Set-Buffer write-back) and returns
	// the run's Result. The controller must not be used afterwards.
	Finalize() Result
}

// New builds a controller of the given kind over c.
func New(kind Kind, c *cache.Cache, opts Options) (Controller, error) {
	if c == nil {
		return nil, fmt.Errorf("core: nil cache")
	}
	arr, err := newArrayFor(kind, c.Geometry())
	if err != nil {
		return nil, err
	}
	base := base{kind: kind, cache: c, geom: c.Geometry(), array: arr, opts: opts}
	switch kind {
	case Conventional, WordGranularity:
		return &directController{base: base}, nil
	case RMW, LocalRMW:
		return &rmwController{base: base}, nil
	case Coalesce:
		return &coalesceController{base: base}, nil
	case KindTS:
		return &tsController{base: base}, nil
	case WG, WGRB:
		return newWGController(base)
	default:
		return nil, fmt.Errorf("core: unknown controller kind %d", kind)
	}
}

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

// base carries the state every controller shares.
type base struct {
	kind  Kind
	cache *cache.Cache
	// geom is the cache geometry hoisted out of the per-access path: Access
	// runs once per trace entry, and the method call plus struct copy of
	// cache.Geometry() is measurable there.
	geom     cache.Geometry
	array    *sram.Array
	opts     Options
	requests trace.Stats
	counters Counters
}

func (b *base) Kind() Kind { return b.kind }

// PeekCounters returns a copy of the live event counters mid-run. Every
// controller in this package exposes it via base; internal/hier diffs
// successive peeks to attribute microarchitectural events (premature
// Set-Buffer write-backs) to the access that caused them, since those never
// reach backing memory and so never fire a cache.Listener.
func (b *base) PeekCounters() Counters { return b.counters }

// SetLocal implements the Controller capability from the kind's static
// classification; every controller in this package shares it via base.
func (b *base) SetLocal() bool { return b.kind.SetLocal() }

// note records stream-level statistics for one request.
func (b *base) note(a trace.Access) {
	b.requests.Observe(a)
	if a.Kind == trace.Read {
		b.counters.DemandReads++
	} else {
		b.counters.DemandWrites++
	}
}

// sizeMask selects the low size bytes of a data word. After a write commits,
// the stored value is exactly a.Data & sizeMask(a.Size) — cache.WriteWord
// stores those bytes verbatim (spill included) — so controllers return the
// mask instead of paying a ReadWord per store.
func sizeMask(size uint8) uint64 {
	if size >= 8 {
		return ^uint64(0)
	}
	return 1<<(8*size) - 1
}

// writeAround handles a write under the no-write-allocate policy: if the
// block is not resident, the store bypasses the SRAM array entirely (it
// heads for the next level through the miss path) and costs no array
// operation. Returns the stored value and true when it applied.
func (b *base) writeAround(a trace.Access) (uint64, bool) {
	if !b.cache.NoWriteAllocate() {
		return 0, false
	}
	if _, _, hit := b.cache.Probe(a.Addr); hit {
		return 0, false
	}
	b.cache.WriteAround(a.Addr, a.Size, a.Data)
	return b.cache.PeekWord(a.Addr, a.Size), true
}

// finalize assembles the Result shared by all controllers.
func (b *base) finalize(localWriteback bool) Result {
	r := Result{
		Controller:     b.kind,
		Geometry:       b.cache.Geometry(),
		Requests:       b.requests,
		Cache:          b.cache.Stats(),
		Counters:       b.counters,
		ArrayReads:     b.array.Count(sram.EvRowRead),
		ArrayWrites:    b.array.Count(sram.EvRowWrite),
		LocalWriteback: localWriteback,
		Events:         b.array,
	}
	if b.opts.CountFillTraffic {
		// A fill writes one block into a row (a partial-row write: RMW cost
		// on interleaved 8T arrays, direct write otherwise); a dirty
		// eviction reads the row out. Mirror that in the totals.
		fills := r.Cache.Fills
		wbs := r.Cache.Writebacks
		if b.array.Config().NeedsRMW() {
			r.ArrayReads += fills
		}
		r.ArrayWrites += fills
		r.ArrayReads += wbs
	}
	return r
}
