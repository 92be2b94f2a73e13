package regress

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cache8t/internal/report"
)

// testOptions keeps the end-to-end tests fast: a tiny stream into a temp
// golden dir, output captured instead of hitting stdout.
func testOptions(t *testing.T, out *bytes.Buffer) Options {
	t.Helper()
	opts := DefaultOptions()
	opts.GoldenDir = t.TempDir()
	opts.N = 2000
	opts.Workers = 2
	opts.Out = out
	return opts
}

// TestUpdateThenRunPasses is the harness's own golden round trip: -update
// writes baselines, an immediate re-run must pass every metric exactly
// (same binary, same seed — determinism is the whole premise).
func TestUpdateThenRunPasses(t *testing.T) {
	var out bytes.Buffer
	opts := testOptions(t, &out)

	opts.Update = true
	sum, err := Run(opts, "fig8", "rmw")
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Updated) != 2 {
		t.Fatalf("updated %v, want fig8 and rmw", sum.Updated)
	}
	for _, id := range []string{"fig8", "rmw"} {
		if _, err := os.Stat(filepath.Join(opts.GoldenDir, id+".json")); err != nil {
			t.Fatalf("golden for %s not written: %v", id, err)
		}
	}

	opts.Update = false
	out.Reset()
	sum, err = Run(opts, "fig8", "rmw")
	if err != nil {
		t.Fatal(err)
	}
	if !sum.OK() {
		t.Fatalf("fresh run drifted against its own goldens: failed=%v\n%s", sum.Failed, out.String())
	}
	if len(sum.Passed) != 2 {
		t.Fatalf("passed %v, want both checks", sum.Passed)
	}
}

// TestTamperedGoldenFails edits one golden metric past its tolerance and
// checks Run reports drift (not an error) with a readable diff table.
func TestTamperedGoldenFails(t *testing.T) {
	var out bytes.Buffer
	opts := testOptions(t, &out)

	opts.Update = true
	if _, err := Run(opts, "rmw"); err != nil {
		t.Fatal(err)
	}

	// Re-encode the golden with a shifted mean: the tamper has to go through
	// report.Encode so the config hash stays valid and only the metric drifts.
	path := filepath.Join(opts.GoldenDir, "rmw.json")
	art, err := report.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	art.Metrics["mean.inflation"] += 0.5 // far outside the 0.0025 abs band
	if err := report.WriteFile(path, art); err != nil {
		t.Fatal(err)
	}

	opts.Update = false
	sum, err := Run(opts, "rmw")
	if err != nil {
		t.Fatalf("drift must not be a harness error: %v", err)
	}
	if sum.OK() {
		t.Fatal("tampered golden passed")
	}
	if len(sum.Failed) != 1 || sum.Failed[0] != "rmw" {
		t.Fatalf("failed = %v, want [rmw]", sum.Failed)
	}
	rendered := out.String()
	if !strings.Contains(rendered, "mean.inflation") || !strings.Contains(rendered, "DRIFT") {
		t.Fatalf("diff table should name the drifted metric:\n%s", rendered)
	}
}

// TestMissingGoldenIsHarnessError distinguishes "no baseline yet" (error,
// with a hint) from drift.
func TestMissingGoldenIsHarnessError(t *testing.T) {
	var out bytes.Buffer
	opts := testOptions(t, &out)
	_, err := Run(opts, "fig8")
	if err == nil {
		t.Fatal("run against empty golden dir succeeded")
	}
	if !strings.Contains(err.Error(), "-update") {
		t.Fatalf("missing-golden error should hint at -update, got: %v", err)
	}
}

func TestUnknownCheckID(t *testing.T) {
	var out bytes.Buffer
	opts := testOptions(t, &out)
	if _, err := Run(opts, "fig99"); err == nil {
		t.Fatal("unknown check id accepted")
	}
}

// TestConfigMismatchReported pins that goldens recorded at one N fail the
// comparability check — not the tolerance bands — when re-run at another N.
func TestConfigMismatchReported(t *testing.T) {
	var out bytes.Buffer
	opts := testOptions(t, &out)
	opts.Update = true
	if _, err := Run(opts, "fig8"); err != nil {
		t.Fatal(err)
	}
	opts.Update = false
	opts.N = 3000
	sum, err := Run(opts, "fig8")
	if err != nil {
		t.Fatal(err)
	}
	if sum.OK() {
		t.Fatal("run at different N passed against pinned goldens")
	}
	if !strings.Contains(out.String(), "config:") {
		t.Fatalf("diff should flag the config mismatch:\n%s", out.String())
	}
}

func TestChecksHaveUniqueIDs(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range Checks() {
		if c.ID == "" || c.Title == "" || c.Build == nil {
			t.Fatalf("check %+v incomplete", c.ID)
		}
		if seen[c.ID] {
			t.Fatalf("duplicate check id %q", c.ID)
		}
		seen[c.ID] = true
	}
	if len(seen) < 5 {
		t.Fatalf("only %d checks registered, want the fig8/rmw/fig9/fig10/fig11 matrix", len(seen))
	}
}

// TestAppendBench checks the bench ledger file is created, appended, and
// stays a JSON array in append order.
func TestAppendBench(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	for _, sha := range []string{"abc", "def"} {
		if err := AppendLedger(path, ThroughputEntry{Schema: report.SchemaVersion, GitSHA: sha, N: 10}); err != nil {
			t.Fatal(err)
		}
	}
	var entries []ThroughputEntry
	readLedger(t, path, &entries)
	if len(entries) != 2 || entries[0].GitSHA != "abc" || entries[1].GitSHA != "def" {
		t.Fatalf("entries = %+v, want the two appended in order", entries)
	}
}
