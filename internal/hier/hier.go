// Package hier composes two internal/core cache instances into an L1→L2
// hierarchy. The L1 walks the demand trace exactly as a single-level
// simulation would, on the batch path, with one accountant per L1 scheme;
// its externally visible behaviour — refills and dirty write-backs — is
// captured as a typed Event stream and synthesized into demand accesses
// that drive a second core controller as the L2.
//
// The synthesis rule is fixed and deliberately simple:
//
//	Refill(base)          → L2 Read  {Addr: base, Size: 8}
//	Writeback(base, data) → L2 Write {Addr: base, Size: 8, Data: data[0:8]}
//
// No L1 scheme changes what the L1 cache holds (DESIGN.md §5), so the
// refill/write-back stream, and with it the whole L2 run, is the same for
// every L1 scheme: one L1 walk and one L2 serve any list of L1 schemes.
//
// The WG family's premature Set-Buffer write-backs are on-chip row
// transfers between the Set-Buffer and the data array; they never carry new
// architectural state past the L1 boundary, so they do not perturb the L2.
// They are still part of the traffic the L1 scheme presents downstream —
// the paper's WG controller pays one row write-back per read-interrupted
// write group that RMW never issues — so each scheme's Result counts them,
// from its own L1 counters, in Traffic and L2Visible. That makes the
// L2-visible totals scheme-DEPENDENT even though the functional stream is
// not: the per-scheme delta isolates exactly the microarchitectural
// component.
//
// Determinism: the L1 access order is the trace order, and listener events
// fire synchronously inside the L1 cache operations that cause them (victim
// write-back strictly before the fill that displaced it). No goroutines
// beyond the driver's decoder, no maps iterated for effect — a hierarchy
// run is bit-reproducible and byte-identical between daemon and in-process
// execution.
package hier

import (
	"context"
	"encoding/binary"
	"fmt"

	"cache8t/internal/cache"
	"cache8t/internal/core"
	"cache8t/internal/mem"
	"cache8t/internal/trace"
)

// EventKind classifies one externally visible L1 event.
type EventKind uint8

const (
	// EvRefill is a demand miss fetching a block into L1.
	EvRefill EventKind = iota
	// EvWriteback is a dirty block leaving L1 (eviction or flush).
	EvWriteback
)

// String names the event kind.
func (k EventKind) String() string {
	switch k {
	case EvRefill:
		return "refill"
	case EvWriteback:
		return "writeback"
	default:
		return fmt.Sprintf("EventKind(%d)", uint8(k))
	}
}

// Event is one element of the L1's externally visible stream.
type Event struct {
	Kind EventKind
	// Addr is the block base address.
	Addr uint64
	// Data is the first 8 bytes of the victim block for EvWriteback.
	Data uint64
}

// Config describes a two-level run.
type Config struct {
	// L1Schemes are the first-level write paths, each a kind with its own
	// options, and L1 the first-level cache they all share.
	L1Schemes []core.Scheme
	L1        cache.Config

	// L2Kind and L2 configure the second-level instance, driven only by the
	// synthesized refill/write-back stream. L2Opts applies to it.
	L2Kind core.Kind
	L2     cache.Config
	L2Opts core.Options

	// Observer, when non-nil, receives every refill and write-back Event in
	// order. Used by tests and tooling; nil adds no per-event work beyond
	// the counters.
	Observer func(Event)
}

// Counts is the traffic one L1 scheme presents downstream: the refill and
// write-back events, which every scheme shares, and the scheme's own
// premature write-backs.
type Counts struct {
	Refills      uint64 `json:"refills"`
	Writebacks   uint64 `json:"writebacks"`
	PrematureWBs uint64 `json:"premature_wbs"`
}

// Total returns all events, functional and on-chip.
func (c Counts) Total() uint64 { return c.Refills + c.Writebacks + c.PrematureWBs }

// Result reports a two-level run for one L1 scheme: each level's full
// single-level Result plus the traffic that connects them.
type Result struct {
	L1      core.Result
	L2      core.Result
	Traffic Counts
}

// L2Visible returns the traffic the L1 scheme presents downstream: the
// functional refill/write-back stream plus the scheme's premature
// write-backs. The functional part is identical for every L1 scheme, so
// per-scheme deltas of this quantity isolate the microarchitectural cost.
func (r Result) L2Visible() uint64 { return r.Traffic.Total() }

// L2VisiblePerRequest normalizes L2Visible by L1 demand requests.
func (r Result) L2VisiblePerRequest() float64 {
	if n := r.L1.Requests.Accesses(); n > 0 {
		return float64(r.L2Visible()) / float64(n)
	}
	return 0
}

// bridge joins the two levels: it is the L1 cache's Listener, turning L1
// block traffic into L2 demand accesses in event order.
type bridge struct {
	l2      core.Controller
	counts  Counts
	observe func(Event)
}

// Fill handles an L1 refill: the miss fetches the block from the next
// level, which the L2 sees as a block-base read.
func (b *bridge) Fill(base uint64) {
	b.counts.Refills++
	if b.observe != nil {
		b.observe(Event{Kind: EvRefill, Addr: base})
	}
	b.l2.Access(trace.Access{Kind: trace.Read, Addr: base, Size: 8})
}

// Writeback handles a dirty block leaving L1, which the L2 sees as a
// block-base write carrying the victim's first word.
func (b *bridge) Writeback(base uint64, data []byte) {
	b.counts.Writebacks++
	word := binary.LittleEndian.Uint64(data[:8])
	if b.observe != nil {
		b.observe(Event{Kind: EvWriteback, Addr: base, Data: word})
	}
	b.l2.Access(trace.Access{Kind: trace.Write, Addr: base, Size: 8, Data: word})
}

// RunContext drives up to max accesses of s (max <= 0 drains the stream)
// through a fresh two-level hierarchy and returns one Result per L1 scheme,
// in order. The L1 runs on core.Driver.Drain, so ctx is polled once per
// batch and a decode failure is a *core.StreamError, exactly as for a
// single-level run. Hierarchy runs are serial: the L1 listener mutates the
// L2 on every fill and eviction, so there is no set-partitioned execution
// to shard.
func RunContext(ctx context.Context, cfg Config, s trace.Stream, max, batchSize int) ([]Result, error) {
	if cfg.L1.BlockBytes < 8 || cfg.L2.BlockBytes < 8 {
		return nil, fmt.Errorf("hier: block size must be at least 8 bytes")
	}
	l1, err := core.NewDriver(cfg.L1, cfg.L1Schemes...)
	if err != nil {
		return nil, fmt.Errorf("hier: L1: %w", err)
	}
	l2c, err := cache.New(cfg.L2, mem.New())
	if err != nil {
		return nil, fmt.Errorf("hier: L2: %w", err)
	}
	l2, err := core.New(cfg.L2Kind, l2c, cfg.L2Opts)
	if err != nil {
		return nil, fmt.Errorf("hier: L2: %w", err)
	}
	br := &bridge{l2: l2, observe: cfg.Observer}
	l1.Listen(br)
	// Draining finalizes L1 first: the WG family's Set-Buffer drain may dirty
	// cache lines but reaches no backing memory, so it emits no events. The
	// L1 cache is deliberately NOT flushed — only traffic the run itself
	// caused counts, matching the single-level drivers, which never flush
	// either.
	l1res, err := l1.Drain(ctx, s, max, batchSize)
	if err != nil {
		return nil, err
	}
	l2res := l2.Finalize()
	out := make([]Result, len(l1res))
	for i, r := range l1res {
		out[i] = Result{L1: r, L2: l2res, Traffic: br.counts}
		out[i].Traffic.PrematureWBs = r.Counters.PrematureWBs
	}
	return out, nil
}
