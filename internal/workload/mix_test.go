package workload

import (
	"context"
	"strings"
	"testing"

	"cache8t/internal/cache"
	"cache8t/internal/core"
	"cache8t/internal/trace"
)

func TestMixValidation(t *testing.T) {
	if _, err := NewMix(nil, 1, 100); err == nil {
		t.Error("empty mix accepted")
	}
	p, _ := ProfileByName("gcc")
	if _, err := NewMix([]Profile{p}, 1, 0); err == nil {
		t.Error("zero quantum accepted")
	}
	if _, err := NewMix([]Profile{{}}, 1, 10); err == nil {
		t.Error("invalid profile accepted")
	}
	if _, err := NewMixByNames([]string{"gcc", "nope"}, 1, 10); err == nil {
		t.Error("unknown name accepted")
	}
}

func TestMixRoundRobinQuanta(t *testing.T) {
	// Two programs in disjoint address regions: the mix must alternate in
	// exact quanta. seq-read regions are shared across profiles, so verify
	// via determinism against manual interleaving instead.
	m, err := NewMixByNames([]string{"gcc", "mcf"}, 7, 50)
	if err != nil {
		t.Fatal(err)
	}
	gcc, _ := Stream("gcc", 7)
	mcf, _ := Stream("mcf", 7)
	for i := 0; i < 500; i++ {
		var want trace.Access
		if i%100 < 50 {
			want, _ = gcc.Next()
		} else {
			want, _ = mcf.Next()
		}
		got, ok := m.Next()
		if !ok || got != want {
			t.Fatalf("access %d: got %+v want %+v", i, got, want)
		}
	}
}

func TestMixDeterminism(t *testing.T) {
	build := func() *Mix {
		m, err := NewMixByNames([]string{"bwaves", "mcf", "gcc"}, 3, 64)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a, b := build(), build()
	for i := 0; i < 2000; i++ {
		x, _ := a.Next()
		y, _ := b.Next()
		if x != y {
			t.Fatalf("mix diverged at %d", i)
		}
	}
}

func TestMixString(t *testing.T) {
	m, _ := NewMixByNames([]string{"gcc", "mcf"}, 1, 10)
	s := m.String()
	if !strings.Contains(s, "gcc") || !strings.Contains(s, "mcf") || !strings.Contains(s, "10") {
		t.Errorf("String = %q", s)
	}
}

func TestMixTruncatesWriteGroups(t *testing.T) {
	// Context switching hurts the single-entry Set-Buffer: the mixed
	// stream's WG reduction must fall below the mean of the solo runs, and
	// a deeper buffer must claw some of it back.
	names := []string{"bwaves", "lbm"}
	const n, quantum = 100_000, 20
	cfg := cache.DefaultConfig()

	soloSum := 0.0
	for _, name := range names {
		g, _ := Stream(name, 1)
		accs := trace.Collect(trace.NewLimit(g, n), 0)
		res, err := core.RunAll(context.Background(), []core.Kind{core.RMW, core.WG}, cfg, core.Options{}, accs)
		if err != nil {
			t.Fatal(err)
		}
		soloSum += 1 - float64(res[1].ArrayAccesses())/float64(res[0].ArrayAccesses())
	}
	soloMean := soloSum / float64(len(names))

	m, err := NewMixByNames(names, 1, quantum)
	if err != nil {
		t.Fatal(err)
	}
	mixed := trace.Collect(trace.NewLimit(m, n), 0)
	res, err := core.RunAll(context.Background(), []core.Kind{core.RMW, core.WG}, cfg, core.Options{}, mixed)
	if err != nil {
		t.Fatal(err)
	}
	mixRed := 1 - float64(res[1].ArrayAccesses())/float64(res[0].ArrayAccesses())
	if mixRed >= soloMean {
		t.Errorf("mixing did not hurt WG: mixed %.3f vs solo mean %.3f", mixRed, soloMean)
	}

	deep, err := core.Run(core.WG, cfg, core.Options{BufferDepth: 4}, trace.FromSlice(mixed), 0)
	if err != nil {
		t.Fatal(err)
	}
	rmw := res[0].ArrayAccesses()
	deepRed := 1 - float64(deep.ArrayAccesses())/float64(rmw)
	if deepRed <= mixRed {
		t.Errorf("deeper buffer did not help the mix: depth4 %.3f vs depth1 %.3f", deepRed, mixRed)
	}
}
