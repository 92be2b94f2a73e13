package sram

import (
	"strings"
	"testing"
)

func TestFreqAtAnchorsAndMonotonicity(t *testing.T) {
	a := DefaultAlphaPower()
	if got := a.FreqAt(a.NominalV); got != a.NominalFreqMHz {
		t.Fatalf("FreqAt(nominal) = %v, want %v", got, a.NominalFreqMHz)
	}
	prev := a.FreqAt(1.0)
	for v := 0.95; v > a.VthVolts+0.02; v -= 0.05 {
		f := a.FreqAt(v)
		if f >= prev {
			t.Fatalf("frequency not monotone: f(%.2f)=%v >= %v", v, f, prev)
		}
		prev = f
	}
	if a.FreqAt(a.VthVolts) != 0 {
		t.Fatal("frequency at threshold should be 0")
	}
	if a.FreqAt(0.1) != 0 {
		t.Fatal("frequency below threshold should be 0")
	}
}

func TestLevels(t *testing.T) {
	a := DefaultAlphaPower()
	levels, err := a.Levels(0.5, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(levels) != 6 {
		t.Fatalf("got %d levels", len(levels))
	}
	if levels[0].VoltageV != a.NominalV {
		t.Errorf("first level at %.2fV", levels[0].VoltageV)
	}
	if v := levels[len(levels)-1].VoltageV; v < 0.499 || v > 0.501 {
		t.Errorf("last level at %.3fV, want 0.5", v)
	}
	for i := 1; i < len(levels); i++ {
		if levels[i].VoltageV >= levels[i-1].VoltageV || levels[i].FreqMHz >= levels[i-1].FreqMHz {
			t.Errorf("levels not descending at %d: %v then %v", i, levels[i-1], levels[i])
		}
	}
}

func TestLevelsValidation(t *testing.T) {
	a := DefaultAlphaPower()
	if _, err := a.Levels(0.5, 1); err == nil {
		t.Error("1 level accepted")
	}
	if _, err := a.Levels(1.2, 4); err == nil {
		t.Error("vmin above nominal accepted")
	}
	if _, err := a.Levels(0.2, 4); err == nil {
		t.Error("vmin below threshold accepted")
	}
}

func TestLevelsForCellReflectVmin(t *testing.T) {
	// The 8T cache lets DVFS descend far below the 6T wall — the paper's
	// motivating claim.
	a := DefaultAlphaPower()
	six, err := a.Levels(SixT.VminVolts(), 8)
	if err != nil {
		t.Fatal(err)
	}
	eight, err := a.Levels(EightT.VminVolts(), 8)
	if err != nil {
		t.Fatal(err)
	}
	sixFloor := six[len(six)-1].VoltageV
	eightFloor := eight[len(eight)-1].VoltageV
	if eightFloor >= sixFloor {
		t.Fatalf("8T floor %.2fV not below 6T floor %.2fV", eightFloor, sixFloor)
	}
	// At its floor the 8T system runs at a fraction of nominal energy.
	eNom := EnergyPerOpAt(1.0, 1.0, six[0].VoltageV)
	e8 := EnergyPerOpAt(1.0, 1.0, eightFloor)
	e6 := EnergyPerOpAt(1.0, 1.0, sixFloor)
	if !(e8 < e6 && e6 < eNom) {
		t.Fatalf("energy ordering violated: nom %.3f, 6T floor %.3f, 8T floor %.3f", eNom, e6, e8)
	}
}

func TestOperatingPointString(t *testing.T) {
	p := OperatingPoint{VoltageV: 0.8, FreqMHz: 1600}
	if got := p.String(); !strings.Contains(got, "0.80V") || !strings.Contains(got, "1600MHz") {
		t.Errorf("String = %q", got)
	}
}
