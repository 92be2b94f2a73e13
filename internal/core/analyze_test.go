package core

import (
	"math"
	"testing"

	"cache8t/internal/cache"
	"cache8t/internal/mem"
	"cache8t/internal/trace"
	"cache8t/internal/workload"
)

func TestAnalyzeScenarioBreakdown(t *testing.T) {
	g := cache.MustGeometry(1024, 2, 32)
	sameSet := uint64(0)
	otherSet := uint64(g.BlockBytes) // set 1
	r := func(addr uint64) trace.Access { return trace.Access{Kind: trace.Read, Addr: addr, Size: 4} }
	w := func(addr, v uint64) trace.Access {
		return trace.Access{Kind: trace.Write, Addr: addr, Size: 4, Data: v}
	}
	stream := []trace.Access{
		r(sameSet), r(sameSet), // RR same-set
		w(sameSet, 1), w(sameSet, 2), // RW then WW same-set
		r(sameSet),     // WR same-set
		r(otherSet),    // different set: not counted in scenarios
		w(otherSet, 3), // RW same-set (both in set 1)
	}
	a := Analyze(trace.FromSlice(stream), g, 0)
	if a.Pairs != 6 {
		t.Fatalf("Pairs = %d, want 6", a.Pairs)
	}
	if a.SameSet != 5 {
		t.Fatalf("SameSet = %d, want 5", a.SameSet)
	}
	if a.Scenario[trace.Read][trace.Read] != 1 {
		t.Errorf("RR = %d", a.Scenario[trace.Read][trace.Read])
	}
	if a.Scenario[trace.Read][trace.Write] != 2 {
		t.Errorf("RW = %d", a.Scenario[trace.Read][trace.Write])
	}
	if a.Scenario[trace.Write][trace.Write] != 1 {
		t.Errorf("WW = %d", a.Scenario[trace.Write][trace.Write])
	}
	if a.Scenario[trace.Write][trace.Read] != 1 {
		t.Errorf("WR = %d", a.Scenario[trace.Write][trace.Read])
	}
	// Shares sum to the same-set share.
	sum := a.RR() + a.RW() + a.WR() + a.WW()
	if math.Abs(sum-a.SameSetFrac()) > 1e-12 {
		t.Errorf("scenario shares %.4f != same-set share %.4f", sum, a.SameSetFrac())
	}
}

func TestAnalyzeSilentWrites(t *testing.T) {
	g := cache.MustGeometry(1024, 2, 32)
	stream := []trace.Access{
		{Kind: trace.Write, Addr: 0, Size: 4, Data: 5},  // non-silent
		{Kind: trace.Write, Addr: 0, Size: 4, Data: 5},  // silent
		{Kind: trace.Write, Addr: 0, Size: 4, Data: 6},  // non-silent
		{Kind: trace.Write, Addr: 64, Size: 4, Data: 0}, // silent (zero memory)
	}
	a := Analyze(trace.FromSlice(stream), g, 0)
	if a.SilentWrites != 2 {
		t.Fatalf("SilentWrites = %d, want 2", a.SilentWrites)
	}
	if got := a.SilentFrac(); got != 0.5 {
		t.Fatalf("SilentFrac = %v, want 0.5", got)
	}
}

func TestAnalyzeEmptyAndZeroGuards(t *testing.T) {
	g := cache.MustGeometry(1024, 2, 32)
	a := Analyze(trace.FromSlice(nil), g, 0)
	if a.SameSetFrac() != 0 || a.SilentFrac() != 0 || a.RR() != 0 {
		t.Error("empty analysis produced nonzero fractions")
	}
}

func TestAnalyzeRespectsMax(t *testing.T) {
	g := cache.MustGeometry(1024, 2, 32)
	stream := make([]trace.Access, 100)
	for i := range stream {
		stream[i] = trace.Access{Kind: trace.Read, Size: 4}
	}
	a := Analyze(trace.FromSlice(stream), g, 10)
	if a.Stats.Accesses() != 10 {
		t.Fatalf("analyzed %d, want 10", a.Stats.Accesses())
	}
}

func TestAnalyzeMatchesControllerSilentCount(t *testing.T) {
	// The analyzer's silent-write count and WG's comparator count agree on
	// streams without evictions (both see the same architectural values).
	stream := randomStream(77, 2000, 2048) // fits in 64KB cache: no evictions
	cfg := cache.DefaultConfig()
	g := cache.MustGeometry(cfg.SizeBytes, cfg.Ways, cfg.BlockBytes)
	a := Analyze(trace.FromSlice(stream), g, 0)
	r, err := runOne(WG, cfg, Options{}, trace.FromSlice(stream), 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.SilentWrites != r.Counters.SilentWrites {
		t.Errorf("analyzer silent %d != WG silent %d", a.SilentWrites, r.Counters.SilentWrites)
	}
}

// refAnalyze is the per-access analysis loop Analyze replaced, kept as the
// reference its batched pull must match.
func refAnalyze(s trace.Stream, g cache.Geometry, max int) StreamAnalysis {
	var out StreamAnalysis
	shadow := mem.New()
	havePrev := false
	var prevKind trace.Kind
	var prevSet int
	for n := 0; max <= 0 || n < max; n++ {
		a, ok := s.Next()
		if !ok {
			break
		}
		out.Stats.Observe(a)
		set := g.SetIndex(a.Addr)
		if havePrev {
			out.Pairs++
			if set == prevSet {
				out.SameSet++
				out.Scenario[prevKind][a.Kind]++
			}
		}
		if a.Kind == trace.Write {
			if shadow.WouldBeSilent(a.Addr, a.Size, a.Data) {
				out.SilentWrites++
			}
			shadow.WriteWord(a.Addr, a.Size, a.Data)
		}
		havePrev = true
		prevKind = a.Kind
		prevSet = set
	}
	return out
}

// TestAnalyzeBatchedMatchesPerAccess holds the batched Analyze of a bwaves
// generator, at a max that cuts a batch, to the per-access reference, and
// checks the generator is not drawn past max: its next access is access
// max+1 of a fresh generator.
func TestAnalyzeBatchedMatchesPerAccess(t *testing.T) {
	prof, err := workload.ProfileByName("bwaves")
	if err != nil {
		t.Fatal(err)
	}
	gen := func() *workload.Generator {
		g, err := workload.NewGenerator(prof, 11)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	g := cache.MustGeometry(64*1024, 4, 32)
	const max = 3*trace.DefaultBatchSize + 1234
	batched := gen()
	got := Analyze(batched, g, max)
	if want := refAnalyze(gen(), g, max); got != want {
		t.Fatalf("batched Analyze = %+v, want the per-access %+v", got, want)
	}
	if got.Stats.Accesses() != max {
		t.Fatalf("analyzed %d accesses, want %d", got.Stats.Accesses(), max)
	}
	fresh := gen()
	for range max {
		fresh.Next()
	}
	want, _ := fresh.Next()
	if next, _ := batched.Next(); next != want {
		t.Fatalf("after Analyze the generator yields %v, want access %d of a fresh one, %v", next, max+1, want)
	}
}
