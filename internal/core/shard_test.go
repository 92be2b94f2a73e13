package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"cache8t/internal/cache"
	"cache8t/internal/mem"
	"cache8t/internal/rng"
	"cache8t/internal/trace"
)

// shardImage flushes every walk's cache and returns the run's memory image:
// each block as the memory of the walk that owns its set holds it.
func shardImage(r *shardRun) *mem.Memory {
	img := mem.New()
	piece := make([]byte, min(r.geom.BlockBytes, mem.ChunkSize))
	for i := range r.walks {
		c := r.walks[i].cache
		c.FlushAll()
		for _, base := range c.Backing().Bases() {
			for a := base; a < base+mem.ChunkSize; a += uint64(len(piece)) {
				if r.route[r.geom.SetIndex(a)] == i {
					c.Backing().Read(a, piece)
					img.Write(a, piece)
				}
			}
		}
	}
	return img
}

// serialRun feeds stream to a fresh controller of kind one access at a
// time and returns its Result and cache, still inspectable.
func serialRun(t *testing.T, k Kind, cfg cache.Config, stream []trace.Access) (Result, *cache.Cache) {
	t.Helper()
	c, err := cache.New(cfg, mem.New())
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := New(k, c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range stream {
		ctrl.Access(a)
	}
	return ctrl.Finalize(), c
}

func TestShardedRandomPartitionProperty(t *testing.T) {
	// Stronger than the conformance suite's sharded rows: any partition of
	// the sets — not just the default route — gives the serial result, and
	// the walks' machine state (per-set lines, flushed memory image)
	// matches the serial cache's byte for byte, for every kind.
	const footprint = 8192
	cfg := smallCfg()
	for seed := uint64(1); seed <= 3; seed++ {
		stream := randomStream(seed*13, 5000, footprint)
		for _, k := range Kinds() {
			serial, sc := serialRun(t, k, cfg, stream)

			const shards = 4
			r, err := newShardRun(cfg, shards, Scheme{Kind: k})
			if err != nil {
				t.Fatal(err)
			}
			route := rng.New(seed * 31)
			for set := range r.route {
				r.route[set] = route.Intn(shards)
			}
			res, err := r.run(context.Background(), trace.FromSlice(stream), 0, 512)
			if err != nil {
				t.Fatalf("%v: %v", k, err)
			}
			requireResultsEqual(t, fmt.Sprintf("%v random partition seed=%d", k, seed), res[0], serial)

			// Machine state: every set's lines live in exactly one walk's
			// cache and must equal the serial cache's.
			var want, got cache.Row
			for set := 0; set < r.geom.Sets; set++ {
				sc.ReadRow(set, &want)
				r.walks[r.route[set]].cache.ReadRow(set, &got)
				for w := range want.Tags {
					if got.Tags[w] != want.Tags[w] || got.State[w] != want.State[w] {
						t.Fatalf("%v set %d way %d: tag %#x state %b, want tag %#x state %b",
							k, set, w, got.Tags[w], got.State[w], want.Tags[w], want.State[w])
					}
				}
				for bi := range want.Data {
					if got.Data[bi] != want.Data[bi] {
						t.Fatalf("%v set %d row byte %d: %#x, want %#x", k, set, bi, got.Data[bi], want.Data[bi])
					}
				}
			}

			sc.FlushAll()
			if !shardImage(r).Equal(sc.Backing()) {
				t.Fatalf("%v seed=%d: flushed memory image differs from serial", k, seed)
			}
		}
	}
}

// walkAccesses returns how many accesses walk i's cache served.
func walkAccesses(r *shardRun, i int) uint64 {
	st := r.walks[i].cache.Stats()
	return st.ReadHits + st.ReadMisses + st.WriteHits + st.WriteMisses
}

func TestShardedBacksEachChunkOnce(t *testing.T) {
	// The default route keeps each shadow-memory chunk on one walk, so
	// after a flush the walks' memories together back exactly the chunks
	// the serial memory does, at every block size and shard count.
	stream := randomStream(23, 5000, 8192)
	for _, block := range []int{8, 16, 32, 64, 128} {
		cfg := cache.Config{SizeBytes: 1024, Ways: 2, BlockBytes: block, Policy: cache.LRU}
		_, sc := serialRun(t, RMW, cfg, stream)
		sc.FlushAll()
		want := sc.Backing().FootprintBytes()
		for _, shards := range []int{2, 3, 4} {
			r, err := newShardRun(cfg, shards, Scheme{Kind: RMW})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := r.run(context.Background(), trace.FromSlice(stream), 0, 512); err != nil {
				t.Fatal(err)
			}
			var got uint64
			for i := range r.walks {
				r.walks[i].cache.FlushAll()
				got += r.walks[i].cache.Backing().FootprintBytes()
				if walkAccesses(r, i) == 0 {
					t.Errorf("block %d, %d shards: walk %d served no accesses", block, shards, i)
				}
			}
			if got != want {
				t.Errorf("block %d, %d shards: walks back %d bytes, serial %d", block, shards, got, want)
			}
		}
	}

	// More shards than chunk runs (16 sets, 8 runs): every walk still
	// owns a set.
	r, err := newShardRun(smallCfg(), 16, Scheme{Kind: RMW})
	if err != nil {
		t.Fatal(err)
	}
	owned := make([]bool, 16)
	for _, s := range r.route {
		owned[s] = true
	}
	for i, ok := range owned {
		if !ok {
			t.Errorf("16 shards over 16 sets: walk %d owns no set", i)
		}
	}
}

func TestShardedZeroSetShardIdentity(t *testing.T) {
	// A route may leave a walk owning zero sets. It serves nothing, and the
	// run still equals serial.
	stream := randomStream(17, 5000, 8192)
	for _, k := range Kinds() {
		serial, err := runOne(k, smallCfg(), Options{}, trace.FromSlice(stream), 0)
		if err != nil {
			t.Fatalf("%v serial: %v", k, err)
		}
		const shards = 4
		r, err := newShardRun(smallCfg(), shards, Scheme{Kind: k})
		if err != nil {
			t.Fatal(err)
		}
		// Walk 3 owns nothing; the rest split the sets round-robin.
		for set := range r.route {
			r.route[set] = set % (shards - 1)
		}
		res, err := r.run(context.Background(), trace.FromSlice(stream), 0, 256)
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		requireResultsEqual(t, fmt.Sprintf("%v zero-set shard", k), res[0], serial)
		if n := walkAccesses(r, 3); n != 0 {
			t.Errorf("%v: zero-set walk served %d accesses, want 0", k, n)
		}
	}
}

func TestShardedFallbackIdentity(t *testing.T) {
	// The Random policy draws every set's victims from one RNG stream, so
	// every kind falls back to the serial driver under it and produces
	// exactly the serial result.
	cfg := smallCfg()
	cfg.Policy, cfg.Seed = cache.Random, 7
	stream := randomStream(3, 4000, 8192)
	if plan := PlanShards(cfg, 4); plan.Shards != 1 || plan.Reason == "" {
		t.Errorf("plan %+v, want serial fallback with reason", plan)
	}
	for _, k := range Kinds() {
		serial, err := runOne(k, cfg, Options{}, trace.FromSlice(stream), 0)
		if err != nil {
			t.Fatal(err)
		}
		got, err := runScheme(Scheme{Kind: k}, cfg, trace.FromSlice(stream), 0, 0, 4)
		if err != nil {
			t.Fatal(err)
		}
		requireResultsEqual(t, fmt.Sprintf("%v fallback", k), got, serial)
	}
}

func TestPlanShards(t *testing.T) {
	cfg := smallCfg() // 16 sets
	random := cfg
	random.Policy = cache.Random
	cases := []struct {
		name       string
		cfg        cache.Config
		req        int
		want       int
		wantReason bool
	}{
		{"serial request", cfg, 1, 1, false},
		{"zero request", cfg, 0, 1, false},
		{"sharded", cfg, 4, 4, false},
		{"random policy", random, 4, 1, true},
		{"clamp to sets", cfg, 32, 16, true},
	}
	for _, c := range cases {
		p := PlanShards(c.cfg, c.req)
		if p.Shards != c.want || (p.Reason != "") != c.wantReason {
			t.Errorf("%s: PlanShards(%d) = %+v, want shards=%d reason=%v",
				c.name, c.req, p, c.want, c.wantReason)
		}
		// Only a request the plan runs serially is refused, with its reason;
		// a clamp still runs in parallel.
		err := p.Err()
		if refused := c.want == 1 && c.wantReason; (err != nil) != refused || (err != nil && err.Error() != p.Reason) {
			t.Errorf("%s: Err() = %v, want refused=%v with the plan's reason", c.name, err, refused)
		}
	}
	// Every deterministic policy shards, clamped to the set count.
	for _, pol := range []cache.PolicyKind{cache.LRU, cache.FIFO, cache.TreePLRU} {
		c := cfg
		c.Policy = pol
		for _, req := range []int{2, 8, 16, 64} {
			if p := PlanShards(c, req); p.Shards != min(req, 16) || p.Err() != nil {
				t.Errorf("%v: PlanShards(%d) = %+v, want %d shards", pol, req, p, min(req, 16))
			}
		}
	}
}

func TestShardedStraddleAborts(t *testing.T) {
	// An access crossing a block boundary spills into another set — maybe
	// another walk's — so the sharded run must refuse it, not diverge. The
	// refused access is the stream's first straddler, whichever walk owns
	// it and however far the walks have drifted apart (batch size 1).
	first := trace.Access{Addr: 94, Size: 8, Kind: trace.Write, Data: 2} // set 2, walk 1: offset 30 + 8 > 32-byte block
	later := trace.Access{Addr: 30, Size: 8, Kind: trace.Write, Data: 3} // set 0, walk 0
	stream := append(randomStream(31, 2000, 8192), first)
	stream = append(append(stream, randomStream(32, 2000, 8192)...), later)
	for _, k := range []Kind{RMW, WG} {
		for _, batch := range []int{1, 0} {
			_, err := runScheme(Scheme{Kind: k}, smallCfg(), trace.FromSlice(stream), 0, batch, 2)
			var cross *ShardCrossSetError
			if !errors.As(err, &cross) {
				t.Fatalf("%v batch %d: err = %v, want ShardCrossSetError", k, batch, err)
			}
			if cross.Access != first || cross.Set != 2 {
				t.Errorf("%v batch %d: aborting access %v in set %d, want the first straddler %v in set 2", k, batch, cross.Access, cross.Set, first)
			}
		}
	}
}

func TestShardedHonorsMax(t *testing.T) {
	stream := randomStream(9, 4000, 8192)
	const max = 1500
	for _, k := range []Kind{RMW, WG} {
		serial, err := runOne(k, smallCfg(), Options{}, trace.FromSlice(stream), max)
		if err != nil {
			t.Fatal(err)
		}
		got, err := runScheme(Scheme{Kind: k}, smallCfg(), trace.FromSlice(stream), max, 0, 4)
		if err != nil {
			t.Fatal(err)
		}
		requireResultsEqual(t, fmt.Sprintf("%v bounded run", k), got, serial)
		if n := got.Requests.Accesses(); n != max {
			t.Fatalf("%v: simulated %d accesses, want %d", k, n, max)
		}
	}
}

// TestRunSchemesShardedOnePass pins that a sharded multi-kind run opens its
// stream once, reads each access once, and walks each access once, in
// exactly one walk, while every kind's Result equals its serial run.
func TestRunSchemesShardedOnePass(t *testing.T) {
	accs := randomStream(21, 5000, 8192)
	kinds := Kinds()
	opens, read := 0, 0
	open := func() (trace.Stream, error) {
		opens++
		return trace.Func(func() (trace.Access, bool) {
			if read == len(accs) {
				return trace.Access{}, false
			}
			read++
			return accs[read-1], true
		}), nil
	}
	got, err := RunSchemes(context.Background(), Schemes(Options{}, kinds...), smallCfg(), open, 0, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if opens != 1 || read != len(accs) {
		t.Fatalf("opened %d times and read %d accesses, want 1 open and %d accesses", opens, read, len(accs))
	}
	for i, k := range kinds {
		want, err := runOne(k, smallCfg(), Options{}, trace.FromSlice(accs), 0)
		if err != nil {
			t.Fatal(err)
		}
		requireResultsEqual(t, k.String(), got[i], want)
	}

	r, err := newShardRun(smallCfg(), 4, Schemes(Options{}, kinds...)...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.run(context.Background(), trace.FromSlice(accs), 0, 0); err != nil {
		t.Fatal(err)
	}
	var walked uint64
	for i := range r.walks {
		walked += walkAccesses(r, i)
	}
	if walked != uint64(len(accs)) {
		t.Fatalf("%d walks served %d accesses for %d kinds, want %d", len(r.walks), walked, len(kinds), len(accs))
	}
}

// TestShardedCancelLeavesNoGoroutine cancels a sharded WG run mid-stream:
// it returns ctx's error, and every goroutine it started (walks, stage,
// decoder, feed drainers) is gone within a deadline.
func TestShardedCancelLeavesNoGoroutine(t *testing.T) {
	accs := randomStream(5, 20_000, 8192)
	start := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := 0
	src := trace.Func(func() (trace.Access, bool) {
		if served == 50_000 {
			cancel()
		}
		served++
		return accs[served%len(accs)], true
	})
	_, err := RunSchemes(ctx, []Scheme{{Kind: WG}}, smallCfg(), func() (trace.Stream, error) { return src, nil }, 0, 512, 4)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > start {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the cancelled run, %d before", runtime.NumGoroutine(), start)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestShardStageSoak runs every kind, and a deeper Set-Buffer beside the
// paper's, at 2, 4 and 8 shards, at batch sizes 1 and 7, so walks and the
// accountant stage hand off thousands of batches. CI runs it under the
// race detector many times over (make race).
func TestShardStageSoak(t *testing.T) {
	accs := randomStream(8, 3000, 8192)
	schemes := append(Schemes(Options{}, Kinds()...), Scheme{WGRB, Options{BufferDepth: 4}})
	want := make([]Result, len(schemes))
	for i, sc := range schemes {
		var err error
		if want[i], err = runOne(sc.Kind, smallCfg(), sc.Opts, trace.FromSlice(accs), 0); err != nil {
			t.Fatal(err)
		}
	}
	open := func() (trace.Stream, error) { return trace.FromSlice(accs), nil }
	for _, shards := range []int{2, 4, 8} {
		for _, batch := range []int{1, 7} {
			got, err := RunSchemes(context.Background(), schemes, smallCfg(), open, 0, batch, shards)
			if err != nil {
				t.Fatal(err)
			}
			for i, sc := range schemes {
				requireResultsEqual(t, fmt.Sprintf("%v%+v shards=%d batch=%d", sc.Kind, sc.Opts, shards, batch), got[i], want[i])
			}
		}
	}
}

func BenchmarkRunSharded(b *testing.B) {
	// nproc bounds the speedup this shows: with GOMAXPROCS=1 the sharded
	// path measures pure overhead (the broadcast, the walks' scans and the
	// stage's handoffs); gains appear once walks map onto real cores.
	cfg := cache.Config{SizeBytes: 64 * 1024, Ways: 8, BlockBytes: 64, Policy: cache.LRU}
	accs := randomStream(99, 200_000, 1<<20)
	for _, k := range []Kind{RMW, WG} {
		for _, shards := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%v/shards=%d", k, shards), func(b *testing.B) {
				b.SetBytes(int64(len(accs)))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res, err := runScheme(Scheme{Kind: k}, cfg, trace.FromSlice(accs), 0, 0, shards)
					if err != nil {
						b.Fatal(err)
					}
					if res.Requests.Accesses() != uint64(len(accs)) {
						b.Fatalf("simulated %d accesses, want %d", res.Requests.Accesses(), len(accs))
					}
				}
			})
		}
	}
}
