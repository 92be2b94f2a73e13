package experiments

import (
	"context"
	"errors"
	"math"
	"strconv"
	"testing"

	"cache8t/internal/stats"
)

func cell(t *testing.T, tab *stats.Table, name string, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(row(t, tab, name)[col], 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestPortsSimulatedVsAnalytic(t *testing.T) {
	cfg := testConfig()
	cfg.AccessesPerBench = 20_000
	tab, err := Ports(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range []string{"RMW", "LocalRMW", "WG", "WG+RB"} {
		sim := cell(t, tab, scheme, 1)
		ana := cell(t, tab, scheme, 2)
		if sim < 1 || ana < 1 {
			t.Errorf("%s: CPI below 1 (sim %.4f, ana %.4f)", scheme, sim, ana)
		}
		if d := math.Abs(sim-ana) / ana; d > 0.12 {
			t.Errorf("%s: models disagree by %.1f%% (sim %.4f, ana %.4f)", scheme, d*100, sim, ana)
		}
	}
	// Simulated orderings: WG+RB fastest, RMW slowest, RMW has the most
	// conflict cycles.
	if !(cell(t, tab, "WG+RB", 1) < cell(t, tab, "WG", 1) && cell(t, tab, "WG", 1) < cell(t, tab, "RMW", 1)) {
		t.Error("simulated CPI ordering violated")
	}
	if cell(t, tab, "RMW", 3) <= cell(t, tab, "WG+RB", 3) {
		t.Errorf("RMW conflict rate %.2f not above WG+RB %.2f",
			cell(t, tab, "RMW", 3), cell(t, tab, "WG+RB", 3))
	}
}

// TestPortsHonorsContext pins that the ports figure stops on its context,
// as cmd/figures' -timeout and Ctrl-C need: a cancelled run fails with
// context.Canceled instead of finishing the table. Streaming skips the
// materialization pass, so the cancel reaches the port-logged runs.
func TestPortsHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := testConfig()
	cfg.Stream = true
	cfg.Context = ctx
	if _, err := Ports(cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestGroupsDistribution(t *testing.T) {
	cfg := testConfig()
	cfg.AccessesPerBench = 20_000
	tab, err := Groups(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 26 {
		t.Fatalf("groups table has %d rows", len(tab.Rows))
	}
	// Shares per row sum to ~100%.
	for _, r := range tab.Rows {
		var sum float64
		for col := 1; col <= 5; col++ {
			sum += parsePct(t, r[col])
		}
		if math.Abs(sum-1) > 0.02 {
			t.Errorf("%s: group shares sum to %.3f", r[0], sum)
		}
	}
	// bwaves (long write bursts) must out-group mcf (pointer chaser).
	bw := cell(t, tab, "bwaves", 6)
	mcf := cell(t, tab, "mcf", 6)
	if bw <= mcf {
		t.Errorf("bwaves mean group %.2f not above mcf %.2f", bw, mcf)
	}
	if mean := cell(t, tab, "MEAN", 6); mean < 1 {
		t.Errorf("mean group size %.2f below 1", mean)
	}
}
