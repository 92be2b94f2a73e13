package core

import (
	"context"
	"errors"
	"fmt"

	"cache8t/internal/cache"
	"cache8t/internal/mem"
	"cache8t/internal/sram"
	"cache8t/internal/trace"
)

// Set-sharded parallel simulation. In a set-associative cache, sets are
// independent state machines: for a set-local controller (Kind.setLocal)
// every observable effect of an access — line contents, replacement state,
// hit/miss counters, array events, memory traffic — depends only on the
// subsequence of accesses to that access's set. Partitioning the sets across
// K shards, replaying each shard's accesses (in stream order) through its
// own controller instance, and summing the per-shard Results therefore
// reproduces the serial Result exactly; RunShardedContext does that with one
// shard per goroutine, fed from a single decode of the trace by a routed
// trace.Fanout: the decoder routes each batch once, appending each access to
// its shard's slab, so every shard iterates only its own accesses —
// contiguously, with no per-access ownership branch — and the total routing
// work is one pass over the stream instead of one per shard.
//
// Cross-set-state controllers (the WG family's global Set-Buffer, the
// coalescer's pending-write window) and the Random replacement policy (one
// RNG stream shared by every set's policy) do not factor this way; for them
// PlanShards forces a fall back to the serial streaming driver rather than
// silently changing semantics. PlanShards is the one owner of that decision:
// a caller that refuses such a request up front (sramd's spec validation,
// sramsim's -shards) asks the plan's Err.

// ShardPlan records how a requested shard count was resolved against a
// (controller, cache) pair's capabilities.
type ShardPlan struct {
	// Requested is the caller's shard count.
	Requested int
	// Shards is the effective count: Requested when sharding applies,
	// otherwise 1 (serial fallback).
	Shards int
	// Reason is non-empty when Shards < Requested, and says why.
	Reason string
}

// Err returns the plan's reason as an error when it runs a parallel request
// serially, and nil otherwise: a clamp that stays above one shard still runs
// in parallel.
func (p ShardPlan) Err() error {
	if p.Shards > 1 || p.Reason == "" {
		return nil
	}
	return errors.New(p.Reason)
}

// PlanShards resolves a requested shard count. Sharding applies only to
// set-local controllers under deterministic per-set replacement, and never
// uses more shards than there are sets.
func PlanShards(kind Kind, cfg cache.Config, shards int) ShardPlan {
	p := ShardPlan{Requested: shards, Shards: shards}
	switch {
	case shards <= 1:
		p.Shards = 1
	case !kind.setLocal():
		p.Shards = 1
		p.Reason = fmt.Sprintf("controller %v keeps cross-set state and cannot be set-sharded; the set-local controllers are conventional, word, rmw and localrmw", kind)
	case cfg.Policy == cache.Random:
		p.Shards = 1
		p.Reason = "random replacement draws every set's victims from one shared RNG stream and cannot be set-sharded"
	default:
		if g, err := cache.NewGeometry(cfg.SizeBytes, cfg.Ways, cfg.BlockBytes); err == nil && shards > g.Sets {
			p.Shards = g.Sets
			p.Reason = fmt.Sprintf("only %d sets; clamping to %d shards", g.Sets, g.Sets)
		}
	}
	return p
}

// RunShardedContext drives up to max accesses of s (max <= 0 drains the
// stream) through shards concurrent controller instances, each simulating
// only its own partition of the cache's sets, and merges the per-shard
// Results into the exact aggregate a serial RunStreamContext would have
// produced. The trace is decoded once and routed once: each shard receives
// only its own sets' accesses. ctx is polled once per batch in every shard.
//
// When the plan falls back (non-set-local controller, Random policy,
// shards <= 1) the run degrades to the serial streaming driver — results
// are identical either way; use PlanShards to surface the reason.
func RunShardedContext(ctx context.Context, kind Kind, cfg cache.Config, opts Options, s trace.Stream, max, batchSize, shards int) (Result, error) {
	plan := PlanShards(kind, cfg, shards)
	if plan.Shards <= 1 {
		return RunStreamContext(ctx, kind, cfg, opts, s, max, batchSize)
	}
	r, err := newShardRun(kind, cfg, opts, plan.Shards)
	if err != nil {
		return Result{}, err
	}
	if err := r.run(ctx, s, max, batchSize); err != nil {
		return Result{}, err
	}
	return r.finish()
}

// shardRun is one sharded execution: K drivers over K private caches (each
// with its own backing memory), plus the set→shard route. Tests reach into
// it to randomize the route and inspect per-shard state.
type shardRun struct {
	geom    cache.Geometry
	route   []int // per-set owning shard
	drivers []*Driver
	caches  []*cache.Cache // drivers[i]'s cache
	mems    []*mem.Memory  // caches[i]'s backing memory
}

// newShardRun builds k fresh drivers of kind. Every shard gets the full
// cache shape — sets outside its partition stay cold and contribute nothing
// to its Result.
func newShardRun(kind Kind, cfg cache.Config, opts Options, k int) (*shardRun, error) {
	g, err := cache.NewGeometry(cfg.SizeBytes, cfg.Ways, cfg.BlockBytes)
	if err != nil {
		return nil, err
	}
	r := &shardRun{
		geom:    g,
		route:   make([]int, g.Sets),
		drivers: make([]*Driver, k),
		caches:  make([]*cache.Cache, k),
		mems:    make([]*mem.Memory, k),
	}
	// Deal the sets out in runs that each cover whole shadow-memory chunks:
	// a chunk holds ChunkSize/BlockBytes consecutive sets' blocks, and a
	// chunk split across shards is backed once in each, doubling the run's
	// memory image. With fewer runs than shards, deal single sets.
	span := max(1, mem.ChunkSize/g.BlockBytes)
	if g.Sets/span < k {
		span = 1
	}
	for set := range r.route {
		r.route[set] = set / span % k
	}
	for i := range r.drivers {
		d, err := NewDriver(kind, cfg, opts)
		if err != nil {
			return nil, err
		}
		c := d.inner.walk.cache
		r.drivers[i], r.caches[i], r.mems[i] = d, c, c.Backing()
	}
	return r, nil
}

// run routes s across one goroutine per shard and joins them. The context
// is polled once per delivered slab per shard; a decode failure surfaces as
// *StreamError carrying how many accesses were simulated cleanly across all
// shards, and a block-straddling access aborts the routing pass with
// *ShardCrossSetError.
func (r *shardRun) run(ctx context.Context, s trace.Stream, max, batchSize int) error {
	if max > 0 {
		s = trace.NewLimit(s, uint64(max))
	}
	fan := trace.NewRouteBroadcast(s, r.routeBatch, batchSizeFor(max, batchSize), len(r.drivers), 0)
	if err := feedEach(ctx, fan, r.drivers); err != nil {
		return err
	}
	if err := fan.Err(); err != nil {
		var re *trace.RouteError
		if errors.As(err, &re) {
			// The routing pass met a block-straddling access: its spill
			// bytes belong to a set on another shard, so set-locality does
			// not hold for it and the run aborts rather than silently
			// diverging from serial. (The bundled generators emit
			// size-aligned accesses, which can never straddle.)
			return &ShardCrossSetError{Access: re.Access, Set: r.geom.SetIndex(re.Access.Addr)}
		}
		var total uint64
		for _, d := range r.drivers {
			total += d.Accesses()
		}
		return &StreamError{Accesses: total, Err: err}
	}
	return nil
}

// routeBatch is the trace.RouteFunc of one sharded run: a single pass over
// each decoded batch computes every access's set once and assigns it to the
// owning shard. Block-straddling accesses (spilling into the next set,
// owned by another shard) are refused with a negative shard, which aborts
// the fan-out. Running on the decoder goroutine, this pass overlaps with
// the shards' controller work on multi-core hosts — and replaces the old
// filter-at-consumer scheme where all K shards re-scanned every batch.
func (r *shardRun) routeBatch(batch []trace.Access, dst []int32) {
	g := r.geom
	block := uint64(g.BlockBytes)
	offMask := block - 1
	for i := range batch {
		a := &batch[i]
		if (a.Addr&offMask)+uint64(a.Size) > block {
			dst[i] = -1
			continue
		}
		dst[i] = int32(r.route[g.SetIndex(a.Addr)])
	}
}

// finish finalizes every shard and merges the parts.
func (r *shardRun) finish() (Result, error) {
	parts := make([]Result, len(r.drivers))
	for i, d := range r.drivers {
		parts[i] = d.Finish()
	}
	return MergeResults(parts)
}

// MergeResults sums per-shard Results of one sharded run into the aggregate
// a serial run over the unpartitioned stream would have produced. All parts
// must come from the same controller kind and geometry. The merge is exact —
// every field of the Result is a sum of per-set contributions — which the
// shard property tests pin field-for-field against serial runs.
func MergeResults(parts []Result) (Result, error) {
	if len(parts) == 0 {
		return Result{}, fmt.Errorf("core: no shard results to merge")
	}
	out := parts[0]
	merged, err := sram.NewArray(parts[0].Events.Config())
	if err != nil {
		return Result{}, err
	}
	merged.AddCounts(parts[0].Events)
	out.Events = merged
	for _, p := range parts[1:] {
		if p.Controller != out.Controller || p.Geometry != out.Geometry {
			return Result{}, fmt.Errorf("core: cannot merge %v/%v shard result into %v/%v aggregate",
				p.Controller, p.Geometry, out.Controller, out.Geometry)
		}
		out.Requests.Reads += p.Requests.Reads
		out.Requests.Writes += p.Requests.Writes
		out.Requests.Instructions += p.Requests.Instructions
		addCacheStats(&out.Cache, p.Cache)
		out.Counters.add(p.Counters)
		out.ArrayReads += p.ArrayReads
		out.ArrayWrites += p.ArrayWrites
		merged.AddCounts(p.Events)
	}
	return out, nil
}

// addCacheStats accumulates functional cache counters.
func addCacheStats(dst *cache.Stats, src cache.Stats) {
	dst.ReadHits += src.ReadHits
	dst.ReadMisses += src.ReadMisses
	dst.WriteHits += src.WriteHits
	dst.WriteMisses += src.WriteMisses
	dst.Fills += src.Fills
	dst.Evictions += src.Evictions
	dst.Writebacks += src.Writebacks
}

// add accumulates another shard's counters. Every Counters field is a
// per-set (and therefore per-shard) sum; the shard property test compares
// merged and serial Counters structs wholesale, so a field added here but
// forgotten there (or vice versa) fails loudly.
func (c *Counters) add(o Counters) {
	c.DemandReads += o.DemandReads
	c.DemandWrites += o.DemandWrites
	c.TagProbes += o.TagProbes
	c.TagHits += o.TagHits
	c.GroupedWrites += o.GroupedWrites
	c.SilentWrites += o.SilentWrites
	c.SilentElidedWBs += o.SilentElidedWBs
	c.PrematureWBs += o.PrematureWBs
	c.BypassedReads += o.BypassedReads
	c.BufferFills += o.BufferFills
	c.BufferWritebacks += o.BufferWritebacks
	for i := range c.GroupSizes {
		c.GroupSizes[i] += o.GroupSizes[i]
	}
}

// ShardCrossSetError aborts a sharded run that met a block-straddling
// access: its spill bytes belong to a set on another shard, so set-locality
// does not hold for it. Rerun serially (RunStreamContext) to simulate such
// traces.
type ShardCrossSetError struct {
	Access trace.Access
	Set    int
}

// Error implements error.
func (e *ShardCrossSetError) Error() string {
	return fmt.Sprintf("core: access %v straddles out of set %d; block-straddling traces cannot be set-sharded — rerun serially", e.Access, e.Set)
}
