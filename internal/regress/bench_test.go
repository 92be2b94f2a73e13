package regress

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"cache8t/internal/cache"
	"cache8t/internal/core"
	"cache8t/internal/hier"
	"cache8t/internal/report"
	"cache8t/internal/sram"
	"cache8t/internal/trace"
	"cache8t/internal/workload"
)

// oldLedger holds verbatim copies of two records BENCH_core.json got before
// ThroughputEntry existed. TestLedgerDecodes pins that appending a new entry
// carries them through unchanged.
const oldLedger = `[
  {
    "batch_size": 4096,
    "controller": "WG",
    "git_sha": "unknown",
    "materialized_accesses_per_sec": 4999091.690035379,
    "materialized_wall_ms": 200.036339,
    "n": 1000000,
    "ratio": 1.3992843541036266,
    "schema": 1,
    "streamed_accesses_per_sec": 6995150.786595962,
    "streamed_wall_ms": 142.956175,
    "unix_ms": 1785991948505,
    "workload": "bzip2"
  },
  {
    "batch_size": 4096,
    "controller": "RMW",
    "git_sha": "1ee3bbbac06c9c1fc53d27bd209aace6141c9044-dirty",
    "materialized_accesses_per_sec": 6160174.225989971,
    "materialized_wall_ms": 162.333071,
    "n": 1000000,
    "ratio": 1.3485603180146297,
    "schema": 1,
    "sharded_accesses_per_sec": 6915954.984353309,
    "sharded_ratio": 0.832508710593433,
    "sharded_wall_ms": 144.59319100000002,
    "shards": 4,
    "streamed_accesses_per_sec": 8307366.513226561,
    "streamed_wall_ms": 120.375091,
    "unix_ms": 1785994330838,
    "workload": "bzip2"
  }
]`

// readLedger decodes the JSON array at path into out.
func readLedger(t *testing.T, path string, out any) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, out); err != nil {
		t.Fatalf("%s is not a JSON array of entries: %v\n%s", path, err, b)
	}
}

func TestLedgerDecodes(t *testing.T) {
	// Appending to a ledger of old-shape entries carries them through
	// field for field.
	path := filepath.Join(t.TempDir(), "bench_core.json")
	if err := os.WriteFile(path, []byte(oldLedger), 0o644); err != nil {
		t.Fatal(err)
	}
	entry := ThroughputEntry{
		Schema: report.SchemaVersion, Bench: "core", GitSHA: "new", Workload: "bzip2", Controller: "WG",
		N: 10, BatchSize: 4096, GoMaxProcs: 4, NumCPU: 8, Rounds: Rounds,
		Modes: []ModeTiming{{Mode: "streamed", MedianMS: 1, Ratio: 1}},
	}
	if err := AppendLedger(path, entry); err != nil {
		t.Fatal(err)
	}
	var old, raw []json.RawMessage
	if err := json.Unmarshal([]byte(oldLedger), &old); err != nil {
		t.Fatal(err)
	}
	readLedger(t, path, &raw)
	if len(raw) != len(old)+1 {
		t.Fatalf("ledger holds %d entries, want %d", len(raw), len(old)+1)
	}
	for i := range old {
		want, _ := report.Canonical(old[i])
		if got, _ := report.Canonical(raw[i]); string(got) != string(want) {
			t.Errorf("old entry %d changed on append:\n%s\nwant\n%s", i, got, want)
		}
	}
	var back ThroughputEntry
	if err := json.Unmarshal(raw[len(old)], &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, entry) {
		t.Errorf("new entry round-tripped to %+v, want %+v", back, entry)
	}
}

func TestCoreBenchRecordsCPUTopology(t *testing.T) {
	opts := DefaultOptions()
	opts.N = 2000
	opts.Context = context.Background()
	e, err := CoreBench(opts)
	if err != nil {
		t.Fatal(err)
	}
	if e.GoMaxProcs != runtime.GOMAXPROCS(0) {
		t.Errorf("GoMaxProcs = %d, want %d", e.GoMaxProcs, runtime.GOMAXPROCS(0))
	}
	if e.NumCPU != runtime.NumCPU() {
		t.Errorf("NumCPU = %d, want %d", e.NumCPU, runtime.NumCPU())
	}
	if e.Bench != "core" || e.Controller != "WG" || e.Rounds != Rounds {
		t.Errorf("bench/controller/rounds = %s/%s/%d, want core/WG/%d", e.Bench, e.Controller, e.Rounds, Rounds)
	}
	checkModes(t, e, "streamed", "materialized")
}

func TestShardScaleSweep(t *testing.T) {
	opts := DefaultOptions()
	opts.N = 5000
	opts.Context = context.Background()
	accs, err := workload.Take(workload.Profiles()[0], opts.Seed, opts.N)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []core.Kind{core.RMW, core.WG} {
		e, err := ShardScale(opts, kind, []int{1, 2, 4})
		if err != nil {
			t.Fatal(err)
		}
		if e.Bench != "shard_scale" {
			t.Errorf("Bench = %q, want shard_scale", e.Bench)
		}
		if e.Controller != kind.String() {
			t.Errorf("Controller = %q, want %v", e.Controller, kind)
		}
		if e.GoMaxProcs != runtime.GOMAXPROCS(0) || e.NumCPU != runtime.NumCPU() {
			t.Errorf("topology = %d/%d, want %d/%d", e.GoMaxProcs, e.NumCPU, runtime.GOMAXPROCS(0), runtime.NumCPU())
		}
		checkModes(t, e, "streamed", "materialized", "shards=1", "shards=2", "shards=4")

		// Identity is the hash of the serial result's identity bytes, so
		// entries at the same n and seed compare across commits.
		res, err := core.RunSchemes(opts.Context, []core.Scheme{{Kind: kind}}, cache.DefaultConfig(),
			func() (trace.Stream, error) { return trace.FromSlice(accs), nil }, 0, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		id, err := coreIdentity(res[0])
		if err != nil {
			t.Fatal(err)
		}
		if sum := sha256.Sum256(id); e.Identity != hex.EncodeToString(sum[:]) {
			t.Errorf("%v: Identity = %s, want the sha256 of the serial run's identity bytes", kind, e.Identity)
		}
	}
}

// checkModes requires e to hold the named modes in order, each measured,
// with streamed as the ratio baseline.
func checkModes(t *testing.T, e ThroughputEntry, names ...string) {
	t.Helper()
	if len(e.Identity) != 64 {
		t.Errorf("Identity = %q, want a hex sha256", e.Identity)
	}
	if len(e.Modes) != len(names) {
		t.Fatalf("got %d modes, want %v", len(e.Modes), names)
	}
	for i, m := range e.Modes {
		if m.Mode != names[i] {
			t.Errorf("mode %d = %s, want %s", i, m.Mode, names[i])
		}
		if m.MedianMS <= 0 || m.AccPS <= 0 || !(m.Q1MS <= m.MedianMS && m.MedianMS <= m.Q3MS) {
			t.Errorf("%s not measured: %+v", m.Mode, m)
		}
		if m.Ratio <= 0 || m.RatioLow > m.RatioHigh {
			t.Errorf("%s: ratio %v, band [%v, %v]", m.Mode, m.Ratio, m.RatioLow, m.RatioHigh)
		}
	}
	if s := e.Modes[0]; s.Ratio != 1 || s.RatioLow != 1 || s.RatioHigh != 1 {
		t.Errorf("streamed ratio = %v [%v, %v], want exactly 1 (it is the baseline)", s.Ratio, s.RatioLow, s.RatioHigh)
	}
}

// TestSummarizePairsRounds pins the summary of one mode: quartiles of its
// own wall times, a ratio of medians, and a band from the ratios of walls
// in the same round.
func TestSummarizePairsRounds(t *testing.T) {
	got := summarize("shards=2", []float64{5, 20, 10, 8}, []float64{10, 12, 10, 10}, 1000)
	want := ModeTiming{
		Mode: "shards=2", MedianMS: 9, Q1MS: 7.25, Q3MS: 12.5, AccPS: 1000 / 0.009,
		// Per round: 10/5, 12/20, 10/10, 10/8.
		Ratio: 10.0 / 9, RatioLow: 0.9, RatioHigh: 1.4375,
	}
	for _, f := range []struct {
		name      string
		got, want float64
	}{
		{"median", got.MedianMS, want.MedianMS}, {"q1", got.Q1MS, want.Q1MS}, {"q3", got.Q3MS, want.Q3MS},
		{"acc/s", got.AccPS, want.AccPS}, {"ratio", got.Ratio, want.Ratio},
		{"ratio_low", got.RatioLow, want.RatioLow}, {"ratio_high", got.RatioHigh, want.RatioHigh},
	} {
		if math.Abs(f.got-f.want) > 1e-9*math.Abs(f.want) {
			t.Errorf("%s = %v, want %v", f.name, f.got, f.want)
		}
	}
	if got.Mode != want.Mode {
		t.Errorf("mode = %q, want %q", got.Mode, want.Mode)
	}
}

// smallResult is a real single-level result: every ledger and event count
// a run produces, from a short stream.
func smallResult(t *testing.T) core.Result {
	t.Helper()
	accs, err := workload.Take(workload.Profiles()[0], 1, 500)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.RunSchemes(context.Background(), []core.Scheme{{Kind: core.WG}}, cache.DefaultConfig(),
		func() (trace.Stream, error) { return trace.FromSlice(accs), nil }, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return res[0]
}

// TestMeasureChecksEventLedger feeds measure two modes whose results differ
// only in one sram event count, from the second mode's third run on: the
// error must name that mode and round.
func TestMeasureChecksEventLedger(t *testing.T) {
	res := smallResult(t)
	bumped := res
	var err error
	if bumped.Events, err = sram.NewArray(res.Events.Config()); err != nil {
		t.Fatal(err)
	}
	bumped.Events.RestoreCounts(res.Events.Counts())
	bumped.Events.Record(sram.EvSense, 1)
	if !reflect.DeepEqual(report.Ledger(res), report.Ledger(bumped)) {
		t.Fatal("the two results must differ only outside report.Ledger")
	}

	calls := 0
	modes := []mode[core.Result]{
		{"streamed", func() (core.Result, error) { return res, nil }},
		{"shards=2", func() (core.Result, error) {
			if calls++; calls >= 3 {
				return bumped, nil
			}
			return res, nil
		}},
	}
	e := ThroughputEntry{Workload: "bzip2", Controller: "WG"}
	err = measure(&e, 5, modes, coreIdentity)
	if err == nil || !strings.Contains(err.Error(), "shards=2 diverged in round 3 of 5") {
		t.Fatalf("err = %v, want shards=2 to diverge in round 3", err)
	}
}

// TestMeasureChecksHierTraffic feeds measure two hierarchy results that
// differ only in the premature write-backs between the levels.
func TestMeasureChecksHierTraffic(t *testing.T) {
	res := smallResult(t)
	a := hier.Result{L1: res, L2: res, Traffic: hier.Counts{Refills: 7, Writebacks: 3, PrematureWBs: 2}}
	b := a
	b.Traffic.PrematureWBs++
	modes := []mode[hier.Result]{
		{"streamed", func() (hier.Result, error) { return a, nil }},
		{"materialized", func() (hier.Result, error) { return b, nil }},
	}
	var e ThroughputEntry
	err := measure(&e, Rounds, modes, hierIdentity)
	if err == nil || !strings.Contains(err.Error(), "materialized diverged in round 1") {
		t.Fatalf("err = %v, want materialized to diverge in round 1", err)
	}
}

// TestMeasureRotates records the call order of M fake modes over R rounds:
// each round runs every mode once, and each mode goes first in ⌊R/M⌋ or
// ⌈R/M⌉ rounds.
func TestMeasureRotates(t *testing.T) {
	for _, tc := range []struct{ modes, rounds int }{{2, 9}, {3, 9}, {4, 9}, {5, 7}, {3, 1}} {
		t.Run(fmt.Sprintf("%dx%d", tc.modes, tc.rounds), func(t *testing.T) {
			var order []int
			modes := make([]mode[int], tc.modes)
			for i := range modes {
				modes[i] = mode[int]{fmt.Sprint("m", i), func() (int, error) {
					order = append(order, i)
					return 0, nil
				}}
			}
			e := ThroughputEntry{N: 1}
			if err := measure(&e, tc.rounds, modes, func(int) ([]byte, error) { return []byte("same"), nil }); err != nil {
				t.Fatal(err)
			}
			if len(order) != tc.modes*tc.rounds {
				t.Fatalf("%d runs, want %d", len(order), tc.modes*tc.rounds)
			}
			firsts := make([]int, tc.modes)
			for r := range tc.rounds {
				round := order[r*tc.modes : (r+1)*tc.modes]
				seen := map[int]bool{}
				for _, m := range round {
					seen[m] = true
				}
				if len(seen) != tc.modes {
					t.Fatalf("round %d ran %v, want every mode once", r+1, round)
				}
				firsts[round[0]]++
			}
			lo, hi := tc.rounds/tc.modes, (tc.rounds+tc.modes-1)/tc.modes
			for m, n := range firsts {
				if n < lo || n > hi {
					t.Errorf("mode %d went first in %d of %d rounds, want %d or %d", m, n, tc.rounds, lo, hi)
				}
			}
			if e.Rounds != tc.rounds || len(e.Modes) != tc.modes || e.Modes[1].Mode != "m1" {
				t.Errorf("entry = %+v, want %d rounds of modes m0..m%d", e, tc.rounds, tc.modes-1)
			}
		})
	}
}

// TestMeasureReportsRunErrors pins that a failing run stops the bench with
// the mode and round in the error, and nothing is reported.
func TestMeasureReportsRunErrors(t *testing.T) {
	boom := errors.New("boom")
	modes := []mode[int]{
		{"streamed", func() (int, error) { return 0, nil }},
		{"materialized", func() (int, error) { return 0, boom }},
	}
	var e ThroughputEntry
	err := measure(&e, Rounds, modes, func(int) ([]byte, error) { return nil, nil })
	if !errors.Is(err, boom) || !strings.Contains(err.Error(), "materialized, round 1") || len(e.Modes) != 0 {
		t.Fatalf("err = %v, modes = %v; want boom from materialized in round 1 and no modes", err, e.Modes)
	}
}
