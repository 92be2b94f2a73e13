package sram

import (
	"math"
	"testing"
)

func TestCellFailProbMonotone(t *testing.T) {
	m := DefaultVminModel(SixT)
	prev := 1.1
	for v := 0.3; v <= 1.0; v += 0.05 {
		p := m.CellFailProb(v)
		if p < 0 || p > 1 {
			t.Fatalf("fail prob %v at %v", p, v)
		}
		if p >= prev {
			t.Fatalf("fail prob not decreasing at %v", v)
		}
		prev = p
	}
	if got := m.CellFailProb(m.MeanVolts); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("fail prob at mean = %v, want 0.5", got)
	}
}

func TestCellFailProbDegenerateSigma(t *testing.T) {
	m := VminModel{MeanVolts: 0.5, SigmaVolts: 0}
	if m.CellFailProb(0.6) != 0 || m.CellFailProb(0.4) != 1 {
		t.Fatal("degenerate sigma misbehaved")
	}
}

func TestArrayYieldBounds(t *testing.T) {
	m := DefaultVminModel(EightT)
	if y := m.ArrayYield(1.0, 512*1024); y < 0.999 {
		t.Errorf("high-voltage yield = %v", y)
	}
	if y := m.ArrayYield(m.MeanVolts, 512*1024); y > 1e-6 {
		t.Errorf("mean-voltage yield = %v, should be ~0 for large arrays", y)
	}
	if m.ArrayYield(0.1, 0) != 1 {
		t.Error("zero-bit array should always yield")
	}
}

func TestArrayVminValidation(t *testing.T) {
	m := DefaultVminModel(SixT)
	if _, err := m.ArrayVmin(0, 0.99); err == nil {
		t.Error("zero bits accepted")
	}
	if _, err := m.ArrayVmin(100, 0); err == nil {
		t.Error("zero yield accepted")
	}
	if _, err := m.ArrayVmin(100, 1); err == nil {
		t.Error("unit yield accepted")
	}
}

func TestVminGrowsWithCapacity(t *testing.T) {
	// Extreme-value statistics: more cells, deeper tail, higher Vmin.
	m := DefaultVminModel(SixT)
	prev := 0.0
	for _, kb := range []int{8, 64, 512, 4096} {
		v, err := m.ArrayVmin(kb*1024*8, 0.99)
		if err != nil {
			t.Fatal(err)
		}
		if v <= prev {
			t.Fatalf("Vmin not growing: %v KB -> %.4f V (prev %.4f)", kb, v, prev)
		}
		prev = v
	}
}

func TestCacheVminMatchesHeadlineNumbers(t *testing.T) {
	// The model is calibrated so a 64 KB cache lands near the published
	// figures the simple CellKind.VminVolts constants carry.
	six, err := DefaultVminModel(SixT).ArrayVmin(64*1024*8, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	eight, err := DefaultVminModel(EightT).ArrayVmin(64*1024*8, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(six-SixT.VminVolts()) > 0.05 {
		t.Errorf("6T 64KB Vmin = %.3f, want ~%.2f", six, SixT.VminVolts())
	}
	if math.Abs(eight-EightT.VminVolts()) > 0.05 {
		t.Errorf("8T 64KB Vmin = %.3f, want ~%.2f", eight, EightT.VminVolts())
	}
	if eight >= six {
		t.Errorf("8T Vmin %.3f not below 6T %.3f", eight, six)
	}
}

func TestVminYieldConsistency(t *testing.T) {
	// At the solved Vmin the yield must meet the target; a hair below it
	// must not (bisection sanity).
	m := DefaultVminModel(EightT)
	const bits = 64 * 1024 * 8
	v, err := m.ArrayVmin(bits, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if y := m.ArrayYield(v, bits); y < 0.99 {
		t.Errorf("yield at solved Vmin = %v", y)
	}
	if y := m.ArrayYield(v-0.01, bits); y >= 0.99 {
		t.Errorf("yield 10mV below Vmin = %v, bisection too loose", y)
	}
}
