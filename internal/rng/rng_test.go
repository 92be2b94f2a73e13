package rng_test

import (
	"math"
	"testing"
	"testing/quick"

	"cache8t/internal/rng"
	"cache8t/internal/workload"
)

func TestSplitMix64KnownSequence(t *testing.T) {
	// Reference values for seed 0 from the public-domain splitmix64.c.
	want := []uint64{
		0xe220a8397b1dcdaf,
		0x6e789e6aa1b965f4,
		0x06c45d188009454f,
		0xf88bb8a8724c81ec,
		0x1b39896a51a8749b,
	}
	s := rng.NewSplitMix64(0)
	for i, w := range want {
		if got := s.Next(); got != w {
			t.Fatalf("SplitMix64 value %d = %#x, want %#x", i, got, w)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a, b := rng.New(42), rng.New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed generators diverged at step %d", i)
		}
	}
	c := rng.New(43)
	same := 0
	a = rng.New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d identical values out of 1000", same)
	}
}

func TestIntnRange(t *testing.T) {
	x := rng.New(1)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := x.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	rng.New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	x := rng.New(7)
	const n, trials = 10, 100000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[x.Intn(n)]++
	}
	want := float64(trials) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d count %d too far from expected %.0f", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	x := rng.New(99)
	var sum float64
	const trials = 100000
	for i := 0; i < trials; i++ {
		f := x.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
		sum += f
	}
	if mean := sum / trials; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Float64 mean = %.4f, want ~0.5", mean)
	}
}

func TestBoolEdges(t *testing.T) {
	x := rng.New(3)
	for i := 0; i < 100; i++ {
		if x.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !x.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
	}
}

func TestBoolProbability(t *testing.T) {
	x := rng.New(5)
	const trials = 200000
	for _, p := range []float64{0.1, 0.42, 0.77} {
		hits := 0
		for i := 0; i < trials; i++ {
			if x.Bool(p) {
				hits++
			}
		}
		got := float64(hits) / trials
		if math.Abs(got-p) > 0.01 {
			t.Errorf("Bool(%v) hit rate %.4f", p, got)
		}
	}
}

func TestGeometricMean(t *testing.T) {
	x := rng.New(11)
	const trials = 50000
	p := 0.25
	var sum int
	for i := 0; i < trials; i++ {
		g := x.Trials(rng.Threshold(p))
		if g < 1 {
			t.Fatalf("Trials returned %d < 1", g)
		}
		sum += g
	}
	mean := float64(sum) / trials
	if math.Abs(mean-1/p) > 0.2 {
		t.Errorf("Trials(Threshold(%v)) mean = %.3f, want ~%.1f", p, mean, 1/p)
	}
	if g := x.Trials(rng.Threshold(1)); g != 1 {
		t.Errorf("Trials(Threshold(1)) = %d, want 1", g)
	}
}

// frozenTrials is Trials as it stood before its loop kept the xoshiro
// state in locals: one Uint64 call per trial, capped at 2^20 trials. It is
// the definition Trials is held to.
func frozenTrials(x *rng.Xoshiro256, t uint64) int {
	switch t {
	case 1 << 53:
		return 1
	case 0:
		return 1 << 20
	}
	n := 1
	for x.Uint64()>>11 >= t && n < 1<<20 {
		n++
	}
	return n
}

// TestTrialsMatchesFrozenLoop holds Trials to frozenTrials draw for draw:
// at the edge thresholds and at every threshold the workload generator
// draws against, each call must return the same count and leave the same
// state, over several seeds. The generated traces, and so every golden,
// hang on this sequence of draws.
func TestTrialsMatchesFrozenLoop(t *testing.T) {
	ths := []uint64{0, 1, 2, rng.Threshold(0.45), rng.Threshold(0.5), 1<<53 - 1, 1 << 53}
	for _, p := range workload.Profiles() {
		ths = append(ths, rng.Threshold(p.MemFrac), rng.Threshold(1/float64(p.RunMean)))
	}
	for _, seed := range []uint64{1, 2, 99, 0x9e3779b97f4a7c15} {
		got, want := rng.New(seed), rng.New(seed)
		for _, th := range ths {
			calls := 100
			if th == 1 || th == 2 {
				calls = 2 // almost surely runs to the cap
			}
			for i := 0; i < calls; i++ {
				g, w := got.Trials(th), frozenTrials(want, th)
				if g != w || got.State() != want.State() {
					t.Fatalf("seed %d, threshold %d, call %d: Trials = %d, state %x; frozen loop = %d, state %x",
						seed, th, i, g, got.State(), w, want.State())
				}
			}
		}
	}
	// Threshold 1 succeeds only on a zero draw, so it runs to the cap:
	// exactly 2^20 draws.
	x, y := rng.New(7), rng.New(7)
	if n := x.Trials(1); n != 1<<20 {
		t.Fatalf("Trials(1) = %d, want the cap %d", n, 1<<20)
	}
	for i := 0; i < 1<<20; i++ {
		y.Uint64()
	}
	if x.State() != y.State() {
		t.Fatal("Trials(1) did not take exactly 2^20 draws")
	}
}

func TestPickRespectsWeights(t *testing.T) {
	x := rng.New(17)
	weights := []float64{0, 1, 3, 0, 6}
	counts := make([]int, len(weights))
	const trials = 100000
	for i := 0; i < trials; i++ {
		counts[x.Pick(weights)]++
	}
	if counts[0] != 0 || counts[3] != 0 {
		t.Fatalf("Pick chose zero-weight bucket: %v", counts)
	}
	// Expected proportions 0.1, 0.3, 0.6.
	for i, want := range map[int]float64{1: 0.1, 2: 0.3, 4: 0.6} {
		got := float64(counts[i]) / trials
		if math.Abs(got-want) > 0.01 {
			t.Errorf("Pick bucket %d rate %.4f, want %.1f", i, got, want)
		}
	}
}

func TestPickPanicsWithoutPositiveWeight(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Pick with all-zero weights did not panic")
		}
	}()
	rng.New(1).Pick([]float64{0, 0, -1})
}

func TestIntnCoversAllValues(t *testing.T) {
	// Property: for small n, every value in [0,n) is eventually produced.
	f := func(seed uint64) bool {
		x := rng.New(seed)
		const n = 5
		var seen [n]bool
		for i := 0; i < 500; i++ {
			seen[x.Intn(n)] = true
		}
		for _, s := range seen {
			if !s {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkXoshiroUint64(b *testing.B) {
	x := rng.New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += x.Uint64()
	}
	_ = sink
}
