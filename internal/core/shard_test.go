package core

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"cache8t/internal/cache"
	"cache8t/internal/mem"
	"cache8t/internal/rng"
	"cache8t/internal/trace"
)

func setLocalKinds(t *testing.T) []Kind {
	t.Helper()
	var out []Kind
	for _, k := range Kinds() {
		if k.SetLocal() {
			out = append(out, k)
		}
	}
	if len(out) == 0 {
		t.Fatal("no set-local kinds")
	}
	return out
}

func TestShardedRandomPartitionProperty(t *testing.T) {
	// Stronger than the conformance suite's sharded rows: any partition of the sets —
	// not just the modulo route — merges into the serial result, and the
	// merged machine state (per-set lines, flushed memory image) matches
	// byte-for-byte, not just the counters.
	const footprint = 8192
	cfg := smallCfg()
	for seed := uint64(1); seed <= 3; seed++ {
		stream := randomStream(seed*13, 5000, footprint)
		for _, k := range setLocalKinds(t) {
			// Serial reference, built by hand so its cache stays inspectable.
			sc, err := cache.New(cfg, mem.New())
			if err != nil {
				t.Fatal(err)
			}
			sctrl, err := New(k, sc, Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, a := range stream {
				sctrl.Access(a)
			}
			serial := sctrl.Finalize()

			const shards = 4
			r, err := newShardRun(k, cfg, Options{}, shards)
			if err != nil {
				t.Fatal(err)
			}
			route := rng.New(seed * 31)
			for set := range r.route {
				r.route[set] = route.Intn(shards)
			}
			if err := r.run(context.Background(), trace.FromSlice(stream), 0, 512); err != nil {
				t.Fatalf("%v: %v", k, err)
			}
			merged, err := r.finish()
			if err != nil {
				t.Fatal(err)
			}
			requireResultsEqual(t, fmt.Sprintf("%v random partition seed=%d", k, seed), merged, serial)

			// Machine state: every set's lines live on exactly one shard and
			// must equal the serial cache's.
			for set := 0; set < r.geom.Sets; set++ {
				want := sc.Set(set)
				got := r.caches[r.route[set]].Set(set)
				for w := range want {
					if got[w].Tag != want[w].Tag || got[w].Valid != want[w].Valid || got[w].Dirty != want[w].Dirty {
						t.Fatalf("%v set %d way %d: line %+v, want %+v", k, set, w, got[w], want[w])
					}
					for bi := range want[w].Data {
						if got[w].Data[bi] != want[w].Data[bi] {
							t.Fatalf("%v set %d way %d byte %d: %#x, want %#x",
								k, set, w, bi, got[w].Data[bi], want[w].Data[bi])
						}
					}
				}
			}

			// Memory image: after flushing everything, each address's byte in
			// the owning shard's memory equals the serial memory's.
			sc.FlushAll()
			for _, c := range r.caches {
				c.FlushAll()
			}
			for addr := uint64(0); addr < footprint; addr++ {
				own := r.mems[r.route[r.geom.SetIndex(addr)]]
				if g, w := own.LoadByte(addr), sc.Backing().LoadByte(addr); g != w {
					t.Fatalf("%v memory byte %#x: %#x, want %#x", k, addr, g, w)
				}
			}
		}
	}
}

func TestShardedZeroSetShardIdentity(t *testing.T) {
	// A route may leave a shard owning zero sets (the routed fan-out then
	// never delivers it a slab). Its empty Result must still merge cleanly
	// and the aggregate must equal serial.
	stream := randomStream(17, 5000, 8192)
	for _, k := range setLocalKinds(t) {
		serial, err := Run(k, smallCfg(), Options{}, trace.FromSlice(stream), 0)
		if err != nil {
			t.Fatalf("%v serial: %v", k, err)
		}
		const shards = 4
		r, err := newShardRun(k, smallCfg(), Options{}, shards)
		if err != nil {
			t.Fatal(err)
		}
		// Shard 3 owns nothing; the rest split the sets round-robin.
		for set := range r.route {
			r.route[set] = set % (shards - 1)
		}
		if err := r.run(context.Background(), trace.FromSlice(stream), 0, 256); err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		merged, err := r.finish()
		if err != nil {
			t.Fatal(err)
		}
		requireResultsEqual(t, fmt.Sprintf("%v zero-set shard", k), merged, serial)
		if r.fed[3] != 0 {
			t.Errorf("%v: zero-set shard simulated %d accesses, want 0", k, r.fed[3])
		}
	}
}

func TestShardedFallbackIdentity(t *testing.T) {
	// Cross-set-state controllers must fall back to the serial driver and
	// produce exactly the serial result.
	stream := randomStream(3, 4000, 8192)
	for _, k := range Kinds() {
		if k.SetLocal() {
			continue
		}
		plan := PlanShards(k, smallCfg(), 4)
		if plan.Shards != 1 || plan.Reason == "" {
			t.Errorf("%v: plan %+v, want serial fallback with reason", k, plan)
		}
		serial, err := Run(k, smallCfg(), Options{}, trace.FromSlice(stream), 0)
		if err != nil {
			t.Fatal(err)
		}
		got, err := RunShardedContext(context.Background(), k, smallCfg(), Options{}, trace.FromSlice(stream), 0, 0, 4)
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
		kind       Kind
		cfg        cache.Config
		req        int
		want       int
		wantReason bool
	}{
		{"serial request", RMW, cfg, 1, 1, false},
		{"zero request", RMW, cfg, 0, 1, false},
		{"set-local", RMW, cfg, 4, 4, false},
		{"cross-set controller", WG, cfg, 4, 1, true},
		{"coalescer", Coalesce, cfg, 4, 1, true},
		{"random policy", RMW, random, 4, 1, true},
		{"clamp to sets", RMW, cfg, 32, 16, true},
	}
	for _, c := range cases {
		p := PlanShards(c.kind, c.cfg, c.req)
		if p.Shards != c.want || (p.Reason != "") != c.wantReason {
			t.Errorf("%s: PlanShards(%v, %d) = %+v, want shards=%d reason=%v",
				c.name, c.kind, c.req, p, c.want, c.wantReason)
		}
	}
}

func TestShardedStraddleAborts(t *testing.T) {
	// An access crossing a block boundary spills into another set — another
	// shard's state — so the sharded run must refuse it, not diverge.
	stream := []trace.Access{
		{Addr: 0, Size: 8, Kind: trace.Write, Data: 1},
		{Addr: 30, Size: 8, Kind: trace.Write, Data: 2}, // offset 30 + 8 > 32-byte block
	}
	_, err := RunShardedContext(context.Background(), RMW, smallCfg(), Options{}, trace.FromSlice(stream), 0, 0, 2)
	var cross *ShardCrossSetError
	if !errors.As(err, &cross) {
		t.Fatalf("err = %v, want ShardCrossSetError", err)
	}
	if cross.Access.Addr != 30 {
		t.Errorf("aborting access %v, want the straddler at 30", cross.Access)
	}
}

func TestShardedContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	stream := randomStream(5, 2000, 8192)
	_, err := RunShardedContext(ctx, RMW, smallCfg(), Options{}, trace.FromSlice(stream), 0, 0, 4)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestShardedHonorsMax(t *testing.T) {
	stream := randomStream(9, 4000, 8192)
	const max = 1500
	serial, err := Run(RMW, smallCfg(), Options{}, trace.FromSlice(stream), max)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunShardedContext(context.Background(), RMW, smallCfg(), Options{}, trace.FromSlice(stream), max, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	requireResultsEqual(t, "bounded run", got, serial)
	if n := got.Requests.Accesses(); n != max {
		t.Fatalf("simulated %d accesses, want %d", n, max)
	}
}

func TestMergeResultsRejectsMismatch(t *testing.T) {
	stream := randomStream(2, 500, 4096)
	a, err := Run(RMW, smallCfg(), Options{}, trace.FromSlice(stream), 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(Conventional, smallCfg(), Options{}, trace.FromSlice(stream), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MergeResults([]Result{a, b}); err == nil {
		t.Error("merged results from different controllers")
	}
	if _, err := MergeResults(nil); err == nil {
		t.Error("merged zero results")
	}
}

func BenchmarkRunSharded(b *testing.B) {
	// nproc bounds the speedup this shows: with GOMAXPROCS=1 the sharded
	// path measures pure overhead (routing scan + goroutine switches); gains
	// appear once shards map onto real cores.
	cfg := cache.Config{SizeBytes: 64 * 1024, Ways: 8, BlockBytes: 64, Policy: cache.LRU}
	accs := randomStream(99, 200_000, 1<<20)
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			b.SetBytes(int64(len(accs)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := RunShardedContext(context.Background(), RMW, cfg, Options{}, trace.FromSlice(accs), 0, 0, shards)
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
