// Command bench is the repository's benchmark: it drives one named workload
// through the public functions of the simulator's layers for a fixed time,
// checks every output against a reference path, and prints its metrics as
// JSON. The last line of standard output is the result:
//
//	{"correct": true, "attempted": 42, "failed": 0, "metrics": {"op_p50_ms": {"value": 812.5, "unit": "ms"}, ...}}
//
// Untraced runs (-trace 0) report the end-to-end metrics; traced runs
// (-trace 1) record spans around every call into a layer, run the layer
// probes, and report the per-layer metrics. The line before the result
// carries the detail: sample counts, quartiles, tail percentiles, gates,
// GOMAXPROCS and CPU count. README.md describes the workloads and metrics.
//
// Usage:
//
//	bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	bash bench/run.sh --compare <runs-a> <runs-b>
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"cache8t/internal/report"
)

// loadGoroutines is the benchmark's fixed load: at most this many
// goroutines or connections generate requests, sized for a 2-CPU host.
// gomaxprocs pins the scheduler to the same size, so a larger host runs the
// same configuration.
const (
	loadGoroutines = 2
	gomaxprocs     = 2
)

// traceOpsShare is the share of a traced run's time spent on the workload's
// own ops; the rest runs layer probes.
const traceOpsShare = 0.6

func main() {
	if os.Getenv(refKernelEnv) == "1" {
		if err := serveKernel(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "bench: reference kernel:", err)
			os.Exit(1)
		}
		return
	}
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
	}
	os.Exit(code)
}

// run parses args, executes the requested mode and returns the exit code.
func run(args []string, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "how long the timed phase runs")
	traced := fs.Int("trace", 0, "1 records spans, runs the layer probes and reports per-layer metrics")
	spansPath := fs.String("spans", "", "traced runs write their spans here (default .bench_build/spans-<workload>-<seed>.json)")
	workDir := fs.String("dir", ".bench_build", "directory that holds the run's temporary files and the default spans file")
	compare := fs.Bool("compare", false, "compare two files of captured runs (the remaining arguments) against BENCHMARK.json's bounds")
	bounds := fs.String("benchmark", "BENCHMARK.json", "with -compare, the file holding the metric bounds")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	if *compare {
		if fs.NArg() != 2 {
			return 2, fmt.Errorf("-compare takes two files of captured runs")
		}
		return compareRuns(*bounds, fs.Arg(0), fs.Arg(1), stdout)
	}
	w, ok := workloadByName(*name)
	if !ok {
		return 2, fmt.Errorf("unknown workload %q (have %s)", *name, strings.Join(workloadNames(), ", "))
	}
	if *traced != 0 && *traced != 1 {
		return 2, fmt.Errorf("-trace must be 0 or 1")
	}
	if *seconds <= 0 {
		return 2, fmt.Errorf("-seconds must be positive")
	}
	runtime.GOMAXPROCS(gomaxprocs)
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		return 1, err
	}
	dir, err := os.MkdirTemp(*workDir, "run-"+w.name+"-")
	if err != nil {
		return 1, err
	}
	defer os.RemoveAll(dir)

	cfg := runConfig{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		traced:  *traced == 1,
		dir:     dir,
		sizes:   fullSizes,
	}
	res, err := execute(w, cfg)
	if err != nil {
		return 1, err
	}
	if cfg.traced {
		path := *spansPath
		if path == "" {
			path = filepath.Join(*workDir, fmt.Sprintf("spans-%s-%d.json", w.name, *seed))
		}
		if err := res.tr.write(path); err != nil {
			return 1, err
		}
		res.detail.SpansFile = path
	}
	if err := res.print(stdout); err != nil {
		return 1, err
	}
	if !res.correct {
		return 1, fmt.Errorf("%s: correctness gates failed: %s", w.name, strings.Join(res.failedGates(), "; "))
	}
	return 0, nil
}

// runConfig is one run's settings.
type runConfig struct {
	seed    uint64
	seconds time.Duration
	traced  bool
	dir     string
	sizes   sizes
}

// metric is one reported value with its unit and, where it summarizes
// samples, their count, quartiles and tail.
type metric struct {
	Value   float64  `json:"value"`
	Unit    string   `json:"unit"`
	N       int      `json:"n,omitempty"`
	P10     *float64 `json:"p10,omitempty"`
	P25     *float64 `json:"p25,omitempty"`
	P75     *float64 `json:"p75,omitempty"`
	P90     *float64 `json:"p90,omitempty"`
	TailPct *float64 `json:"tail_pct,omitempty"`
	Tail    *float64 `json:"tail,omitempty"`
}

// summary reports the median of xs with its quartiles, count and tail.
func summary(xs []float64, unit string) metric {
	q1, q2, q3 := quartiles(xs)
	p10, p90 := rank(xs, 10), rank(xs, 90)
	m := metric{Value: q2, Unit: unit, N: len(xs), P10: &p10, P25: &q1, P75: &q3, P90: &p90}
	if p, v, ok := tail(xs); ok {
		m.TailPct, m.Tail = &p, &v
	}
	return m
}

// gate is one correctness check and its outcome.
type gate struct {
	Name string `json:"name"`
	OK   bool   `json:"ok"`
	Note string `json:"note,omitempty"`
}

// detail is the line printed before the result: everything a reader needs
// to interpret or reproduce the run.
type detail struct {
	Workload       string            `json:"workload"`
	Seed           uint64            `json:"seed"`
	Traced         bool              `json:"traced"`
	Seconds        float64           `json:"seconds"`
	GOMAXPROCS     int               `json:"gomaxprocs"`
	NumCPU         int               `json:"num_cpu"`
	LoadGoroutines int               `json:"load_goroutines"`
	GitSHA         string            `json:"git_sha"`
	Go             string            `json:"go"`
	Metrics        map[string]metric `json:"metrics"`
	// Scaled says whether the timings in Metrics are at the reference speed;
	// RawMetrics are the same timings as measured, and RefKernelMS the
	// reference kernel's times they were scaled by (see hostspeed.go).
	Scaled      bool              `json:"scaled"`
	RawMetrics  map[string]metric `json:"raw_metrics,omitempty"`
	RefKernelMS metric            `json:"ref_kernel_ms"`
	Gates       []gate            `json:"gates"`
	SpanSelfMS  map[string]metric `json:"span_self_ms,omitempty"`
	SpansFile   string            `json:"spans_file,omitempty"`
}

// result is a finished run.
type result struct {
	correct   bool
	attempted int
	failed    int
	metrics   map[string]metric
	detail    detail
	tr        *tracer
}

func (r *result) failedGates() []string {
	var out []string
	for _, g := range r.detail.Gates {
		if !g.OK {
			out = append(out, g.Name+": "+g.Note)
		}
	}
	return out
}

// print writes the detail line and then the result line.
func (r *result) print(w io.Writer) error {
	d, err := json.Marshal(map[string]detail{"bench": r.detail})
	if err != nil {
		return err
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	vals := make(map[string]value, len(r.metrics))
	for k, m := range r.metrics {
		vals[k] = value{m.Value, m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct, r.attempted, r.failed, vals})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", d, line)
	return err
}

// execute sets the workload up, runs its timed phase, checks its outputs,
// and assembles the metrics the mode reports.
func execute(w workloadDef, cfg runConfig) (*result, error) {
	var tr *tracer
	if cfg.traced {
		tr = newTracer()
	}
	cal, err := newCalibrator()
	if err != nil {
		return nil, err
	}
	defer cal.close()
	inst, setupRaw, setupScaled, err := setUp(w, cfg, cal, tr)
	if err != nil {
		return nil, fmt.Errorf("%s: setup: %w", w.name, err)
	}
	closed := false
	defer func() {
		if !closed {
			inst.close()
		}
	}()

	opsTime := cfg.seconds
	if cfg.traced {
		opsTime = time.Duration(float64(cfg.seconds) * traceOpsShare)
	}
	rec := &recorder{cal: cal}
	before := sampleHost()
	phaseStart := time.Now()
	inst.run(phaseStart.Add(opsTime), rec)
	phaseEnd := time.Now()
	after := sampleHost()
	maxRSS := maxRSSMB()

	res := &result{tr: tr, metrics: map[string]metric{}}
	res.attempted, res.failed = rec.counts()
	lat, accesses := rec.latencies(w.cpuBound)
	if len(lat) == 0 {
		return nil, fmt.Errorf("%s: no op completed in the timed phase (%d attempted, %d failed): %v",
			w.name, res.attempted, res.failed, rec.firstErr())
	}
	wall := phaseEnd.Sub(phaseStart).Seconds()
	refs, err := cal.measurements()
	if err != nil {
		return nil, err
	}
	raw := map[string]metric{}
	if cfg.traced {
		p, err := newProber(w, inst, cfg, tr)
		if err != nil {
			return nil, fmt.Errorf("%s: probes: %w", w.name, err)
		}
		attempted, failed := p.run(time.Now().Add(cfg.seconds - opsTime))
		res.attempted += attempted
		res.failed += failed
		layers, err := p.metrics()
		if cerr := p.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, fmt.Errorf("%s: probes: %w", w.name, err)
		}
		for k, m := range layers {
			res.metrics[k] = m
		}
		res.metrics["bench.traced_op_p50_ms"] = summary(lat, "ms")
		for k, m := range hostMetrics(before, after, wall, accesses) {
			res.metrics[k] = m
		}
	} else {
		rawLat, _ := rec.latencies(false)
		raw["op_p50_ms"] = summary(rawLat, "ms")
		raw["sim_maccess_per_s"] = summary(scaled(rec.windowRates(phaseStart, phaseEnd, false), 1e-6), "Macc/s")
		raw["setup_s"] = summary(setupRaw, "s")
		res.metrics["op_p50_ms"] = summary(lat, "ms")
		res.metrics["sim_maccess_per_s"] = summary(scaled(rec.windowRates(phaseStart, phaseEnd, w.cpuBound), 1e-6), "Macc/s")
		res.metrics["setup_s"] = summary(setupScaled, "s")
		res.metrics["max_rss_mb"] = metric{Value: maxRSS, Unit: "MB"}
	}

	gates := inst.check()
	closed = true
	if err := inst.close(); err != nil {
		gates = append(gates, gate{Name: "shutdown", Note: err.Error()})
	} else {
		gates = append(gates, gate{Name: "shutdown", OK: true})
	}
	res.correct = true
	for _, g := range gates {
		res.correct = res.correct && g.OK
	}
	res.detail = detail{
		Workload:       w.name,
		Seed:           cfg.seed,
		Traced:         cfg.traced,
		Seconds:        cfg.seconds.Seconds(),
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		NumCPU:         runtime.NumCPU(),
		LoadGoroutines: loadGoroutines,
		GitSHA:         report.GitSHA(),
		Go:             runtime.Version(),
		Metrics:        res.metrics,
		Scaled:         w.cpuBound,
		RawMetrics:     raw,
		RefKernelMS:    summary(refs, "ms"),
		Gates:          gates,
	}
	if cfg.traced {
		res.detail.SpanSelfMS = spanSelfSummary(tr.snapshot())
	}
	return res, nil
}

// setUp builds the workload's inputs and services sizes.setupReps times
// (once in traced runs, which report no setup_s), closing all but the last
// instance, and returns that one with every repetition's time in seconds,
// raw and at the reference speed.
func setUp(w workloadDef, cfg runConfig, cal *calibrator, tr *tracer) (inst instance, raw, atRef []float64, err error) {
	reps := cfg.sizes.setupReps
	if cfg.traced {
		reps = 1
	}
	for i := 0; i < reps; i++ {
		e := &env{seed: cfg.seed, dir: filepath.Join(cfg.dir, fmt.Sprintf("setup-%d", i)), tr: tr, sizes: cfg.sizes}
		if err := os.MkdirAll(e.dir, 0o755); err != nil {
			return nil, nil, nil, err
		}
		refMS, err := cal.measure()
		if err != nil {
			return nil, nil, nil, err
		}
		start := time.Now()
		in, err := w.setup(e)
		if err != nil {
			return nil, nil, nil, err
		}
		d := time.Since(start).Seconds()
		raw = append(raw, d)
		if w.cpuBound {
			d *= speedFactor(refMS)
		}
		atRef = append(atRef, d)
		if i == reps-1 {
			return in, raw, atRef, nil
		}
		if err := in.close(); err != nil {
			return nil, nil, nil, err
		}
		os.RemoveAll(e.dir)
	}
	return nil, nil, nil, fmt.Errorf("no setup repetitions")
}

// scaled returns xs multiplied by f.
func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

// spanSelfSummary summarizes self time per span name, in ms.
func spanSelfSummary(spans []Span) map[string]metric {
	self := selfTimes(spans)
	by := map[string][]float64{}
	for _, s := range spans {
		by[s.Name] = append(by[s.Name], float64(self[s.ID])/1e6)
	}
	out := make(map[string]metric, len(by))
	for name, xs := range by {
		out[name] = summary(xs, "ms")
	}
	return out
}

// workloadNames lists the workloads in definition order.
func workloadNames() []string {
	var out []string
	for _, w := range workloads() {
		out = append(out, w.name)
	}
	return out
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// background is the context the benchmark's calls run under; runs end by
// their own deadline, so nothing cancels it.
var background = context.Background()
