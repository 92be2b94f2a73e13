package core

import (
	"bytes"
	"testing"

	"cache8t/internal/cache"
	"cache8t/internal/trace"
)

// The materialized/streamed pair below is the go-bench view of what
// cmd/benchcore records into BENCH_core.json: the streamed path must not
// regress against replaying a pre-materialized slice.

func benchAccesses(b *testing.B, n int) []trace.Access {
	b.Helper()
	return randomStream(99, n, 1<<16)
}

func BenchmarkRunMaterialized(b *testing.B) {
	accs := benchAccesses(b, 100_000)
	b.SetBytes(int64(len(accs)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runOne(WG, smallCfg(), Options{}, trace.FromSlice(accs), 0); err != nil {
			b.Fatal(err)
		}
	}
}

// TestControllerSteadyStateNoAlloc pins the hot-path allocation contract:
// once the cache, controller, and Set-Buffer are warm (and the backing
// memory's chunks exist), replaying aligned accesses allocates nothing —
// access by access through Access, batch by batch through Driver.Feed's
// batch entry, or through one walk feeding several kinds' accountants.
func TestControllerSteadyStateNoAlloc(t *testing.T) {
	accs := randomStream(42, 20_000, 1<<13)
	multi, err := NewDriver(smallCfg(), Schemes(Options{}, RMW, WG, WGRB)...)
	if err != nil {
		t.Fatal(err)
	}
	feedMulti := func() {
		for b := accs; len(b) > 0; b = b[min(len(b), 4096):] {
			multi.Feed(b[:min(len(b), 4096)])
		}
	}
	feedMulti()
	if avg := testing.AllocsPerRun(3, feedMulti); avg > 0 {
		t.Errorf("RMW+WG+WG+RB: %.1f allocations per warm 20k-access multi-kind Feed, want 0", avg)
	}
	for _, k := range []Kind{RMW, WG, WGRB} {
		c, err := cache.New(smallCfg(), newMem())
		if err != nil {
			t.Fatal(err)
		}
		ctrl, err := New(k, c, Options{})
		if err != nil {
			t.Fatal(err)
		}
		replay := func() {
			for _, a := range accs {
				ctrl.Access(a)
			}
		}
		replay() // warm up: fill lines, buffers, and memory chunks
		if avg := testing.AllocsPerRun(3, replay); avg > 0 {
			t.Errorf("%v: %.1f allocations per warm 20k-access replay, want 0", k, avg)
		}

		d, err := NewDriver(smallCfg(), Scheme{Kind: k})
		if err != nil {
			t.Fatal(err)
		}
		feed := func() {
			for b := accs; len(b) > 0; b = b[min(len(b), 4096):] {
				d.Feed(b[:min(len(b), 4096)])
			}
		}
		feed()
		if avg := testing.AllocsPerRun(3, feed); avg > 0 {
			t.Errorf("%v: %.1f allocations per warm 20k-access Driver.Feed, want 0", k, avg)
		}
	}
}

func BenchmarkRunStreamedBinary(b *testing.B) {
	accs := benchAccesses(b, 100_000)
	var buf bytes.Buffer
	if _, err := trace.WriteAll(&buf, trace.FromSlice(accs), 0); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(accs)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runOne(WG, smallCfg(), Options{}, trace.NewReader(bytes.NewReader(data)), 0); err != nil {
			b.Fatal(err)
		}
	}
}
