package core

import (
	"fmt"
	"testing"

	"cache8t/internal/cache"
	"cache8t/internal/mem"
	"cache8t/internal/rng"
	"cache8t/internal/trace"
)

// requireMatchesReference holds kind k to the frozen reference over accs:
// the value every access returns (through Access), the memory image after
// FlushAll, and the whole Result of both the per-access and the batch path.
// This is the correctness invariant of DESIGN.md §5.
func requireMatchesReference(t *testing.T, label string, k Kind, cfg cache.Config, opts Options, accs []trace.Access) {
	t.Helper()
	label = fmt.Sprintf("%s: %v", label, k)
	c, err := cache.New(cfg, mem.New())
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := New(k, c, opts)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := cache.New(cfg, mem.New())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := newReference(k, rc, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range accs {
		if got, want := ctrl.Access(a), ref.Access(a); got != want {
			t.Fatalf("%s: access %d (%v) returned %#x, reference %#x", label, i, a, got, want)
		}
	}
	want := ref.Finalize()
	requireResultsEqual(t, label+" per access", ctrl.Finalize(), want)
	c.FlushAll()
	rc.FlushAll()
	if !c.Backing().Equal(rc.Backing()) {
		t.Fatalf("%s: memory image differs from the reference's", label)
	}
	got, err := runOne(k, cfg, opts, trace.FromSlice(accs), 0)
	if err != nil {
		t.Fatal(err)
	}
	requireResultsEqual(t, label+" batch", got, want)
}

// FuzzSchemesAgainstReference draws one random cache shape and one hostile
// stream from seed and holds all eight kinds to the frozen reference on
// them. The seed corpus runs with the tier-1 tests; `make fuzz-smoke` fuzzes
// further seeds.
func FuzzSchemesAgainstReference(f *testing.F) {
	for seed := uint64(1); seed <= 16; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		r := rng.New(seed)
		cfg, opts := randomShape(r)
		accs := hostileStream(r, 5000)
		label := fmt.Sprintf("seed %d, cfg %+v, opts %+v", seed, cfg, opts)
		for _, k := range Kinds() {
			requireMatchesReference(t, label, k, cfg, opts, accs)
		}
	})
}

// randomShape draws a cache configuration and controller options: 512 B to
// 64 KiB, 16-64 B blocks, 1-4 ways, every policy, write-around 30% of the
// time, Set-Buffer depth 1/2/4, and each ablation flag 30% of the time.
func randomShape(r *rng.Xoshiro256) (cache.Config, Options) {
	sizes := []int{512, 1024, 4096, 65536}
	blocks := []int{16, 32, 64}
	ways := []int{1, 2, 4}
	policies := []cache.PolicyKind{cache.LRU, cache.FIFO, cache.Random, cache.TreePLRU}
	depths := []int{1, 2, 4}
	cfg := cache.Config{
		SizeBytes:       sizes[r.Intn(len(sizes))],
		Ways:            ways[r.Intn(len(ways))],
		BlockBytes:      blocks[r.Intn(len(blocks))],
		Policy:          policies[r.Intn(len(policies))],
		Seed:            r.Uint64(),
		NoWriteAllocate: r.Bool(0.3),
	}
	opts := Options{
		BufferDepth:          depths[r.Intn(len(depths))],
		DisableSilentElision: r.Bool(0.3),
		CountFillTraffic:     r.Bool(0.3),
	}
	return cfg, opts
}

// hostileStream builds n accesses of mixed sizes over a 1-16 KiB footprint
// tight enough to evict inside buffered sets: 5% unaligned (and so possibly
// block-straddling), 45% writes, half of them storing zero (silent
// candidates).
func hostileStream(r *rng.Xoshiro256, n int) []trace.Access {
	sizes := []uint8{1, 2, 4, 8}
	footprint := uint64(1) << (10 + r.Intn(5))
	out := make([]trace.Access, 0, n)
	for i := 0; i < n; i++ {
		size := sizes[r.Intn(len(sizes))]
		var addr uint64
		if r.Bool(0.05) {
			addr = uint64(r.Intn(int(footprint)))
		} else {
			addr = uint64(r.Intn(int(footprint/uint64(size)))) * uint64(size)
		}
		a := trace.Access{Addr: addr, Size: size, Gap: uint32(r.Intn(4))}
		if r.Bool(0.45) {
			a.Kind = trace.Write
			if r.Bool(0.5) {
				a.Data = r.Uint64()
			}
		}
		out = append(out, a)
	}
	return out
}
