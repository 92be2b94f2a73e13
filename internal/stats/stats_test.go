package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMean(t *testing.T) {
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %v", got)
	}
	if got := Mean([]float64{2, 4, 6}); !almost(got, 4) {
		t.Errorf("Mean = %v, want 4", got)
	}
}

func TestMax(t *testing.T) {
	if got := Max(nil); got != 0 {
		t.Errorf("Max(nil) = %v", got)
	}
	if got := Max([]float64{3, 1, 4, 1, 5}); got != 5 {
		t.Errorf("Max = %v, want 5", got)
	}
}

func TestPercentAndRatio(t *testing.T) {
	if got := Percent(0.273); got != "27.3%" {
		t.Errorf("Percent = %q", got)
	}
	if got := Ratio(1, 0); got != 0 {
		t.Errorf("Ratio div-by-zero = %v", got)
	}
	if got := Ratio(3, 4); !almost(got, 0.75) {
		t.Errorf("Ratio = %v", got)
	}
}

func TestReduction(t *testing.T) {
	if got := Reduction(73, 100); !almost(got, 0.27) {
		t.Errorf("Reduction = %v, want 0.27", got)
	}
	if got := Reduction(100, 0); got != 0 {
		t.Errorf("Reduction zero-before = %v", got)
	}
	if got := Reduction(120, 100); !almost(got, -0.2) {
		t.Errorf("Reduction inflation = %v, want -0.2", got)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if got := Quantile(xs, 0); got != 1 {
		t.Errorf("q0 = %v", got)
	}
	if got := Quantile(xs, 1); got != 5 {
		t.Errorf("q1 = %v", got)
	}
	if got := Quantile(xs, 0.5); !almost(got, 3) {
		t.Errorf("median = %v", got)
	}
	if got := Quantile(xs, 0.25); !almost(got, 2) {
		t.Errorf("q25 = %v", got)
	}
	if got := Quantile(nil, 0.5); got != 0 {
		t.Errorf("empty quantile = %v", got)
	}
}

func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.1 {
			v := Quantile(xs, q)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTableRender(t *testing.T) {
	tab := NewTable("Demo", "Bench", "Value")
	tab.AddRow("bwaves", "47.0%")
	tab.AddRowf("mcf", Pct(0.205))
	out := tab.String()
	for _, want := range []string{"Demo", "Bench", "bwaves", "47.0%", "mcf", "20.5%"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q in:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// Title + header + rule + 2 rows.
	if len(lines) != 5 {
		t.Errorf("line count = %d: %q", len(lines), lines)
	}
}

func TestTableCSVQuoting(t *testing.T) {
	tab := NewTable("", "a", "b")
	tab.AddRow("x,y", `say "hi"`)
	var b strings.Builder
	if err := tab.CSV(&b); err != nil {
		t.Fatal(err)
	}
	want := "a,b\n\"x,y\",\"say \"\"hi\"\"\"\n"
	if b.String() != want {
		t.Errorf("CSV = %q, want %q", b.String(), want)
	}
}

func TestBars(t *testing.T) {
	out := Bars("t", []string{"aa", "b"}, []float64{1, 0.5}, 10)
	if !strings.Contains(out, "##########") {
		t.Errorf("full bar missing:\n%s", out)
	}
	if !strings.Contains(out, "#####") || !strings.Contains(out, "50.0%") {
		t.Errorf("half bar missing:\n%s", out)
	}
	// Over-unity and negative ratios are clamped.
	out = Bars("", []string{"x", "y"}, []float64{2, -1}, 4)
	if !strings.Contains(out, "####") || !strings.Contains(out, "0.0%") {
		t.Errorf("clamping failed:\n%s", out)
	}
}

func TestTableMarkdown(t *testing.T) {
	tab := NewTable("Demo", "a", "b")
	tab.AddRow("x|y", "2")
	var b strings.Builder
	if err := tab.Markdown(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"**Demo**", "| a | b |", "|---|---|", `x\|y`} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown missing %q:\n%s", want, out)
		}
	}
}
