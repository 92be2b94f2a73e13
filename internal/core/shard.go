package core

import (
	"context"
	"errors"
	"fmt"

	"cache8t/internal/cache"
	"cache8t/internal/mem"
	"cache8t/internal/trace"
)

// Set-sharded parallel simulation. In a set-associative cache under a
// deterministic replacement policy the walk is set-local: what an access
// does to the cache — line contents, replacement state, hit or miss, memory
// traffic — depends only on the earlier accesses to its set. Every kind's
// cross-set state (WG's Set-Buffer, the coalescer's pending block, TS's read
// count) lives in its accountant, which never touches the cache.
//
// So a sharded run splits the walk and keeps one accountant stage: K walks,
// each over its own cache and shadow memory, serve the accesses of their
// own sets, and the stage charges every scheme's accountants with the
// outcomes in stream order. The accountants see the serial outcome sequence,
// so their counters and event ledgers are the serial run's by construction;
// only the walks' cache statistics and memory images combine. The decoder
// broadcasts each batch to the K walks and the stage. Walk i serves the
// accesses its route assigns it and writes each outcome at the access's
// index in the batch, and the stage charges a batch once every walk has
// finished it, while the walks serve up to shardDepth batches ahead.
//
// The Random replacement policy draws every set's victims from one RNG
// stream, so it runs serially. PlanShards is the one owner of that
// decision: a caller that refuses such a request up front (the job spec
// validation sramd and sramsim share) asks the plan's Err.

// shardDepth is how far the walks may run ahead of the accountant stage, in
// batches: the broadcast's slab count, the number of outcome buffers and the
// depth of each walk's token channel. The stage must not hold the walks
// back: a barrier per batch cost replay_sharded_chase a third of its
// throughput, and 4 batches of slack instead of 8 cost it a few percent.
const shardDepth = 8

// ShardPlan records how a requested shard count was resolved against a
// cache's capabilities.
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

// PlanShards resolves a requested shard count for a cache of shape cfg.
// Every scheme shards alike: only the Random policy runs serially, and a run
// never uses more shards than there are sets.
func PlanShards(cfg cache.Config, shards int) ShardPlan {
	p := ShardPlan{Requested: shards, Shards: shards}
	switch {
	case shards <= 1:
		p.Shards = 1
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

// shardRun is one sharded execution: K walks over K private caches (each
// over its own backing memory), the set→walk route, and the accountants of
// every scheme. Tests reach into it to randomize the route and inspect the
// walks' caches.
type shardRun struct {
	geom  cache.Geometry
	route []int // per-set owning walk
	walks []walk
	accts accountants
	fed   uint64 // accesses the accountant stage has charged
}

// newShardRun builds k walks and an accountant of each scheme. Every walk
// gets the full cache shape; sets outside its partition stay cold.
func newShardRun(cfg cache.Config, k int, schemes ...Scheme) (*shardRun, error) {
	r := &shardRun{walks: make([]walk, k)}
	for i := range r.walks {
		c, err := cache.New(cfg, mem.New())
		if err != nil {
			return nil, err
		}
		r.walks[i] = newWalk(c)
	}
	g := r.walks[0].geom
	accts, err := newAccountants(g, schemes)
	if err != nil {
		return nil, err
	}
	r.geom, r.accts, r.route = g, accts, make([]int, g.Sets)
	// Deal the sets out in runs that each cover whole shadow-memory chunks:
	// a chunk holds ChunkSize/BlockBytes consecutive sets' blocks, and a
	// chunk split across walks is backed once in each, doubling the run's
	// memory image. With fewer runs than walks, deal single sets.
	span := max(1, mem.ChunkSize/g.BlockBytes)
	if g.Sets/span < k {
		span = 1
	}
	for set := range r.route {
		r.route[set] = set / span % k
	}
	return r, nil
}

// run feeds up to max accesses of s to the walks and the accountant stage,
// one goroutine each, and returns every scheme's Result. A decode failure
// surfaces as *StreamError carrying how many accesses the stage charged,
// and a block-straddling access aborts the run with *ShardCrossSetError.
func (r *shardRun) run(ctx context.Context, s trace.Stream, max, batchSize int) ([]Result, error) {
	if max > 0 {
		s = trace.NewLimit(s, uint64(max))
	}
	size := batchSizeFor(max, batchSize)
	// Batch n's outcomes go to outs[n%shardDepth]. The broadcast publishes
	// batch n only once every feed has released batch n-shardDepth, so by
	// then the stage has charged it and is done with that buffer.
	outs := make([][]outcome, shardDepth)
	for i := range outs {
		outs[i] = make([]outcome, size)
	}
	// walked[i] holds a token for each batch walk i has finished and the
	// stage has not yet charged: at most shardDepth of them.
	walked := make([]chan struct{}, len(r.walks))
	stages := make([]func(context.Context, trace.Batch) error, 0, len(r.walks)+1)
	for i := range r.walks {
		walked[i] = make(chan struct{}, shardDepth)
		w, n := &r.walks[i], 0
		mine := make([]uint8, len(r.route))
		for set, owner := range r.route {
			if owner == i {
				mine[set] = 1
			}
		}
		stages = append(stages, func(ctx context.Context, b trace.Batch) error {
			o := outs[n%shardDepth]
			n++
			if j := w.shard(b, o, mine); j >= 0 {
				return &ShardCrossSetError{Access: b[j], Set: r.geom.SetIndex(b[j].Addr)}
			}
			select {
			case walked[i] <- struct{}{}:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		})
	}
	n := 0
	stages = append(stages, func(ctx context.Context, b trace.Batch) error {
		for _, ch := range walked {
			select {
			case <-ch:
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		r.accts.charge(b, outs[n%shardDepth][:len(b)])
		n++
		r.fed += uint64(len(b))
		return nil
	})
	fan := trace.NewBroadcast(s, size, len(stages), shardDepth)
	if err := feedEach(ctx, fan, stages); err != nil {
		return nil, err
	}
	if err := fan.Err(); err != nil {
		return nil, &StreamError{Accesses: r.fed, Err: err}
	}
	var st cache.Stats
	for i := range r.walks {
		addCacheStats(&st, r.walks[i].cache.Stats())
	}
	return r.accts.results(st), nil
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

// ShardCrossSetError aborts a sharded run that met a block-straddling
// access: its spill bytes may belong to a set on another shard, so
// set-locality does not hold for it. Rerun serially (shards <= 1) to
// simulate such traces.
type ShardCrossSetError struct {
	Access trace.Access
	Set    int
}

// Error implements error.
func (e *ShardCrossSetError) Error() string {
	return fmt.Sprintf("core: access %v straddles out of set %d; block-straddling traces cannot be set-sharded — rerun serially", e.Access, e.Set)
}
