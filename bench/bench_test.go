package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary serve as the reference-kernel helper, as
// the benchmark binary does.
func TestMain(m *testing.M) {
	if os.Getenv(refKernelEnv) == "1" {
		if err := serveKernel(os.Stdin, os.Stdout); err != nil {
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// tinySizes shrink every op so the smoke test runs all workloads in seconds.
var tinySizes = sizes{
	burstN:    20_000,
	chaseN:    40_000,
	matrixN:   2_000,
	jobN:      2_000,
	sweepN:    2_000,
	sweepW:    2,
	probeN:    5_000,
	setupReps: 2,
	golden:    "../golden",
}

// benchmarkJSON reads the metric and workload names of the repository's
// BENCHMARK.json.
func benchmarkJSON(t *testing.T) (e2e, layer map[string]metricDef, names map[string]bool) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit, Better string }
	var f struct {
		Workloads []def `json:"workloads"`
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	e2e, layer, names = map[string]metricDef{}, map[string]metricDef{}, map[string]bool{}
	for _, m := range f.EndToEnd {
		e2e[m.Name] = metricDef{m.Name, m.Unit, m.Better}
	}
	for _, m := range f.PerLayer {
		layer[m.Name] = metricDef{m.Name, m.Unit, m.Better}
	}
	for _, w := range f.Workloads {
		names[w.Name] = true
	}
	return e2e, layer, names
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func defs(ms []metricDef) map[string]metricDef {
	out := map[string]metricDef{}
	for _, m := range ms {
		out[m.name] = m
	}
	return out
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the metric tables in
// step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	e2e, layer, names := benchmarkJSON(t)
	if want := defs(endToEnd); !mapsEqual(e2e, want) {
		t.Errorf("end_to_end in BENCHMARK.json = %v, code reports %v", e2e, want)
	}
	if want := defs(perLayer); !mapsEqual(layer, want) {
		t.Errorf("per_layer in BENCHMARK.json = %v, code reports %v", layer, want)
	}
	for _, w := range workloadNames() {
		if !names[w] {
			t.Errorf("workload %s missing from BENCHMARK.json", w)
		}
	}
	if len(names) != len(workloadNames()) {
		t.Errorf("BENCHMARK.json lists %d workloads, code defines %d", len(names), len(workloadNames()))
	}
}

func mapsEqual(a, b map[string]metricDef) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// TestWorkloadsSmoke runs every workload untraced and traced at tiny sizes
// and checks the gates and the printed result.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads() {
		for _, traced := range []bool{false, true} {
			want := defs(endToEnd)
			mode := "untraced"
			if traced {
				want, mode = defs(perLayer), "traced"
			}
			t.Run(w.name+"/"+mode, func(t *testing.T) {
				cfg := runConfig{seed: 7, seconds: 200 * time.Millisecond, traced: traced, dir: t.TempDir(), sizes: tinySizes}
				res, err := execute(w, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !res.correct {
					t.Fatalf("gates failed: %s", strings.Join(res.failedGates(), "; "))
				}
				var out bytes.Buffer
				if err := res.print(&out); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var last map[string]json.RawMessage
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
					t.Fatal(err)
				}
				if keys := sortedKeys(last); strings.Join(keys, ",") != "attempted,correct,failed,metrics" {
					t.Fatalf("result keys = %v", keys)
				}
				var r struct {
					Correct           bool
					Attempted, Failed int
					Metrics           map[string]struct {
						Value float64
						Unit  string
					}
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
					t.Fatal(err)
				}
				if !r.Correct || r.Attempted < 1 || r.Failed != 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d", r.Correct, r.Attempted, r.Failed)
				}
				if len(r.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d: %v", len(r.Metrics), len(want), sortedKeys(r.Metrics))
				}
				for name, def := range want {
					m, ok := r.Metrics[name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", name)
					case m.Unit != def.unit:
						t.Errorf("metric %s unit %q, want %q", name, m.Unit, def.unit)
					case !traced && m.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
					}
				}
			})
		}
	}
}

// TestRunRejectsBadArguments covers the command-line checks.
func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "fig9_matrix", "--trace", "2"},
		{"--workload", "fig9_matrix", "--seconds", "0"},
		{"--compare", "only-one-file"},
	} {
		var out bytes.Buffer
		if code, err := run(args, &out); code == 0 || err == nil || out.Len() > 0 {
			t.Errorf("run(%v) = %d, %v, output %q; want a failure without output", args, code, err, out.String())
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(xs, n=4) on the same inputs.
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{5, 1}, 0, 3, 6},
		{[]float64{2.5, 9, 1, 7, 4.5, 3}, 2.125, 3.75, 7.5},
		{[]float64{4}, 4, 4, 4},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // unsorted on purpose
		}
		return xs
	}
	for _, c := range []struct {
		n      int
		pct, v float64
		ok     bool
	}{
		{2400, 99, 2376, true}, // 24 beyond p99; p99.9 would leave 2
		{1000, 99, 990, true},  // exactly 10 beyond
		{999, 95, 950, true},   // p99 would leave 9
		{100, 90, 90, true},
		{20, 50, 10, true},
		{19, 0, 0, false},
	} {
		pct, v, ok := tail(seq(c.n))
		if pct != c.pct || v != c.v || ok != c.ok {
			t.Errorf("tail(1..%d) = p%v %v %v, want p%v %v %v", c.n, pct, v, ok, c.pct, c.v, c.ok)
		}
	}
}

func TestSelfTimeSubtractsUnionOfOverlappingChildren(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50}, // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 60, End: 70},
		{ID: 5, Parent: 1, Name: "d", Start: 90, End: 120}, // clipped to 90..100
		{ID: 6, Parent: 3, Name: "b.child", Start: 25, End: 45},
	}
	self := selfTimes(spans)
	for id, want := range map[int64]int64{1: 40, 2: 20, 3: 10, 4: 10, 5: 30, 6: 20} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestWindowRatesSpreadOpsOverTheirIntervals(t *testing.T) {
	t0 := time.Now()
	rec := &recorder{}
	slow := 2 * float64(refNominal.Nanoseconds()) / 1e6 // the host ran at half the reference speed
	rec.add(sample{start: t0, lat: 750 * time.Millisecond, accesses: 1500, refMS: slow})
	rec.add(sample{start: t0.Add(750 * time.Millisecond), lat: 250 * time.Millisecond, accesses: 1000, refMS: slow})
	rec.add(sample{start: t0, lat: time.Second, accesses: 999, failed: 1, refMS: slow})
	for _, c := range []struct {
		scale bool
		want  []float64
	}{
		{false, []float64{2000, 3000}}, // 1000 in the first window; 500 + 1000 in the second
		{true, []float64{4000, 6000}},
	} {
		got := rec.windowRates(t0, t0.Add(time.Second), c.scale)
		if len(got) != len(c.want) {
			t.Fatalf("windowRates(scale=%v) = %v, want %v", c.scale, got, c.want)
		}
		for i := range c.want {
			if d := got[i] - c.want[i]; d > 1e-6 || d < -1e-6 {
				t.Errorf("scale=%v: window %d rate = %v, want %v", c.scale, i, got[i], c.want[i])
			}
		}
	}
	if lat, _ := rec.latencies(true); len(lat) != 2 || lat[0] != 375 || lat[1] != 125 {
		t.Errorf("scaled latencies = %v, want [375 125]", lat)
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98}
	scale := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, x := range base {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 100}
	for _, c := range []struct {
		name   string
		a, b   []float64
		better string
		want   string
	}{
		{"same", base, scale(1.02), "lower", "same"},
		{"worse latency", base, scale(1.2), "lower", "worse"},
		{"better latency", base, scale(0.8), "lower", "better"},
		{"worse throughput", base, scale(0.8), "higher", "worse"},
		{"noisy", noisy, base, "lower", "unresolved"},
		{"noisy but every run better", noisy, scale(0.5), "lower", "better"},
	} {
		if _, v := verdict(c.a, c.b, c.better, 0.1); v != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, v, c.want)
		}
	}
}

func TestCompareRuns(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, opMS []float64) string {
		var b strings.Builder
		for _, v := range opMS {
			line, _ := json.Marshal(map[string]detail{"bench": {Workload: "fig9_matrix", Metrics: map[string]metric{
				"op_p50_ms": {Value: v}, "sim_maccess_per_s": {Value: 1000 / v}, "max_rss_mb": {Value: 20}, "setup_s": {Value: 1},
			}}})
			b.Write(line)
			b.WriteString("\n{\"correct\":true}\n")
		}
		path := dir + "/" + name
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a", []float64{100, 101, 99, 100, 102})
	same := write("same", []float64{100, 100, 101, 99, 101})
	slow := write("slow", []float64{150, 151, 149, 150, 152})
	var out bytes.Buffer
	if code, err := run([]string{"--compare", "--benchmark", "../BENCHMARK.json", a, same}, &out); code != 0 || err != nil {
		t.Fatalf("same sets: exit %d, %v\n%s", code, err, out.String())
	}
	out.Reset()
	if code, _ := run([]string{"--compare", "--benchmark", "../BENCHMARK.json", a, slow}, &out); code != 1 || !strings.Contains(out.String(), "worse") {
		t.Fatalf("slower set: exit %d\n%s", code, out.String())
	}
}
