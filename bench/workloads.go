package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"cache8t/internal/cache"
	"cache8t/internal/core"
	"cache8t/internal/experiments"
	"cache8t/internal/regress"
	"cache8t/internal/report"
	"cache8t/internal/trace"
	"cache8t/internal/workload"
)

// sizes fixes how much work one op of each workload does. The timed phase
// runs ops back to back for a fixed time, so these set the op granularity,
// not the run length. Ops are kept short (10-400 ms on the reference host)
// so a run holds enough of them that its medians ride out the bursts of
// contention a shared host has.
type sizes struct {
	burstN  int // replay_write_burst: accesses in the trace file
	chaseN  int // replay_sharded_chase: accesses in the trace file
	matrixN int // fig9_matrix: accesses per profile
	jobN    int // serve_mixed: accesses per job
	sweepN  int // sweep_fleet: accesses per point
	sweepW  int // sweep_fleet: profiles per sweep, the first of sweepProfiles
	probeN  int // layer probes: accesses per sample
	// setupReps is how many times an untraced run builds its inputs and
	// services; setup_s is the median of the repetitions.
	setupReps int
	golden    string // directory of the golden artifacts
}

var fullSizes = sizes{
	burstN:    300_000,
	chaseN:    1_000_000,
	matrixN:   40_000,
	jobN:      20_000,
	sweepN:    50_000,
	sweepW:    len(sweepProfiles),
	probeN:    200_000,
	setupReps: 5,
	golden:    "golden",
}

// env is what a workload's setup gets: the run's seed, a private directory,
// the tracer (nil when untraced) and the op sizes.
type env struct {
	seed  uint64
	dir   string
	tr    *tracer
	sizes sizes
}

// workloadDef is one named set of inputs the benchmark runs.
type workloadDef struct {
	name string
	// profiles are the benchmark profiles the workload's inputs come from;
	// the layer probes sample them in turn.
	profiles []string
	// cpuBound says the workload's timings track the host's CPU speed, so
	// they are reported at the reference speed (see hostspeed.go).
	cpuBound bool
	// setup builds the inputs, starts the services and runs one untimed
	// warm-up op.
	setup func(e *env) (instance, error)
}

// instance is a set-up workload.
type instance interface {
	// run issues ops until deadline from at most loadGoroutines goroutines,
	// recording one sample per op.
	run(deadline time.Time, rec *recorder)
	// check runs the correctness gates. It is called once, after run.
	check() []gate
	// close stops the workload's services.
	close() error
}

// Optional instance methods the layer probes read from, when the workload
// itself exercises the layer.
type (
	// jobLog lists the jobs a workload submitted to a job server.
	jobLog interface{ jobs() []jobSample }
	// sweepLog lists the sweeps a workload ran through its fleet.
	sweepLog interface {
		sweeps() []sweepSample
		fleet() *fleetStack
	}
	// pairLog lists the Figure 9 reduction pairs a workload computed.
	pairLog interface {
		pairs() []experiments.ReductionPair
	}
)

// workloads are the benchmark's workloads. BENCHMARK.json records why each
// was chosen; the comments say which layers each one puts on its critical
// path.
func workloads() []workloadDef {
	return []workloadDef{
		// Set-Buffer merge and elision plus trace decode, serially; no
		// routing, generation or services.
		{name: "replay_write_burst", profiles: []string{"bwaves"}, cpuBound: true,
			setup: setupReplay("bwaves", func(z sizes) int { return z.burstN }, paperKinds, 1)},
		// Routing and shard overlap; the Set-Buffer idles.
		{name: "replay_sharded_chase", profiles: []string{"mcf"}, cpuBound: true,
			setup: setupReplay("mcf", func(z sizes) int { return z.chaseN }, []core.Kind{core.RMW}, chaseShards)},
		// Generation, the broadcast fan-out and the engine pool; no decode.
		{name: "fig9_matrix", profiles: workload.Names(), cpuBound: true, setup: setupFig9},
		// HTTP, queue, result cache, artifact encode and the SSE hand-off.
		{name: "serve_mixed", profiles: workload.Names(), cpuBound: true, setup: setupServe},
		// Dispatch, polling, verification and merge. Its points wait on the
		// coordinator's 25 ms status poll, a wall-clock timer, longer than
		// they compute, so its timings are not scaled.
		{name: "sweep_fleet", profiles: sweepProfiles, setup: setupSweep},
	}
}

// sample is one op's outcome.
type sample struct {
	start    time.Time
	lat      time.Duration
	refMS    float64 // reference kernel time measured last before the op
	accesses uint64  // controller-accesses the op simulated
	units    int     // attempted operations inside the op
	failed   int     // failed operations inside the op
	err      error
}

// recorder collects samples from the load goroutines and calibrates the
// host's speed between their ops.
type recorder struct {
	cal     *calibrator
	mu      sync.Mutex
	samples []sample
}

func (r *recorder) add(s sample) {
	r.mu.Lock()
	r.samples = append(r.samples, s)
	r.mu.Unlock()
}

// counts returns the attempted and failed operations.
func (r *recorder) counts() (attempted, failed int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.samples {
		attempted += s.units
		failed += s.failed
	}
	return attempted, failed
}

// factor is what converts the sample's timings to the reference speed, or
// 1 when they are reported raw.
func (s sample) factor(scale bool) float64 {
	if !scale {
		return 1
	}
	return speedFactor(s.refMS)
}

// latencies returns the latency in ms of every op that fully succeeded,
// scaled to the reference speed when scale is set, and the accesses those
// ops simulated.
func (r *recorder) latencies(scale bool) ([]float64, uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var lat []float64
	var acc uint64
	for _, s := range r.samples {
		if s.failed == 0 {
			lat = append(lat, float64(s.lat.Nanoseconds())/1e6*s.factor(scale))
			acc += s.accesses
		}
	}
	return lat, acc
}

// rateWindow is the window the throughput of a timed phase is measured
// over; the reported rate is the median across windows.
const rateWindow = 500 * time.Millisecond

// windowRates spreads each successful op's accesses evenly over the op's
// own interval and returns the accesses per second simulated in each whole
// rateWindow of [from, to), each op's share scaled to the reference speed
// when scale is set. A phase shorter than one window is one window.
func (r *recorder) windowRates(from, to time.Time, scale bool) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := int(to.Sub(from) / rateWindow)
	width := rateWindow
	if n == 0 {
		n, width = 1, to.Sub(from)
	}
	acc := make([]float64, n)
	for _, s := range r.samples {
		if s.failed > 0 || s.accesses == 0 || s.lat <= 0 {
			continue
		}
		perNS := float64(s.accesses) / float64(s.lat) / s.factor(scale)
		a, b := s.start.Sub(from), s.start.Sub(from)+s.lat
		for w := max(0, int(a/width)); w < n && time.Duration(w)*width < b; w++ {
			lo, hi := max(a, time.Duration(w)*width), min(b, time.Duration(w+1)*width)
			if hi > lo {
				acc[w] += perNS * float64(hi-lo)
			}
		}
	}
	for i := range acc {
		acc[i] /= width.Seconds()
	}
	return acc
}

func (r *recorder) firstErr() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.samples {
		if s.err != nil {
			return s.err
		}
	}
	return nil
}

// serially runs op back to back until deadline: the load of one client.
// Each op is one root span named name. after, when set, sees each op's
// sample once the op's clock has stopped.
func serially(deadline time.Time, rec *recorder, tr *tracer, name string, op func(sp span) sample, after func(sample)) {
	for time.Now().Before(deadline) {
		ref := rec.cal.begin()
		sp := tr.root(name)
		s := op(sp)
		s.refMS = ref
		s.start, s.lat = sp.start, sp.end()
		rec.cal.end()
		rec.add(s)
		if after != nil {
			after(s)
		}
	}
}

// kindName is the lower-case span and metric name of a controller kind.
func kindName(k core.Kind) string {
	return strings.ToLower(strings.ReplaceAll(k.String(), "+", ""))
}

// paperKinds are the three schemes Figure 9 compares.
var paperKinds = []core.Kind{core.RMW, core.WG, core.WGRB}

// ledgerBytes is the canonical encoding of a run's event ledger: two runs
// agree exactly when these bytes do. A failed run passes its error through.
func ledgerBytes(res core.Result, err error) ([]byte, error) {
	if err != nil {
		return nil, err
	}
	return report.Canonical(report.Ledger(res))
}

// compareGate passes when a reference path produced the bytes the workload
// saw; mismatch says what differed.
func compareGate(name string, want, got []byte, err error, mismatch string) gate {
	switch {
	case err != nil:
		return gate{Name: name, Note: err.Error()}
	case !bytes.Equal(want, got):
		return gate{Name: name, Note: mismatch}
	}
	return gate{Name: name, OK: true}
}

// writeTrace writes the first n accesses of profile's stream as an
// uncompressed binary trace file.
func writeTrace(path, profile string, seed uint64, n int) error {
	g, err := workload.Stream(profile, seed)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := trace.WriteAll(f, g, n); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// replayFile runs fn over a fresh decode of the trace file at path.
func replayFile(path string, fn func(s trace.Stream) (core.Result, error)) (core.Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return core.Result{}, err
	}
	defer f.Close()
	s, err := trace.NewAnyReader(f)
	if err != nil {
		return core.Result{}, err
	}
	return fn(s)
}

// readTrace materializes the trace file at path.
func readTrace(path string) ([]trace.Access, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return trace.ReadAll(f)
}

// reference keeps the first ledger seen for each slot and counts later
// ledgers that differ from it.
type reference struct {
	first    map[string][]byte
	diverged int
}

func (r *reference) see(slot string, b []byte) {
	if r.first == nil {
		r.first = map[string][]byte{}
	}
	if prev, ok := r.first[slot]; !ok {
		r.first[slot] = b
	} else if !bytes.Equal(prev, b) {
		r.diverged++
	}
}

func (r *reference) gate(name string) gate {
	return gate{Name: name, OK: r.diverged == 0, Note: fmt.Sprintf("%d ops diverged from the first", r.diverged)}
}

// --- replay_write_burst, replay_sharded_chase -------------------------------

// chaseShards is replay_sharded_chase's set-shard count: one shard per CPU
// of the reference host.
const chaseShards = 2

// replay replays one profile's binary trace file through each of kinds,
// set-sharded over shards (1 runs serially), each over its own decode, as a
// trace-file user of the simulator does.
type replay struct {
	path   string
	kinds  []core.Kind
	shards int
	cfg    cache.Config
	tr     *tracer
	ref    reference
}

// setupReplay writes the first n(sizes) accesses of profile as the trace
// file and warms up.
func setupReplay(profile string, n func(sizes) int, kinds []core.Kind, shards int) func(e *env) (instance, error) {
	return func(e *env) (instance, error) {
		r := &replay{path: filepath.Join(e.dir, profile+".c8tt"), kinds: kinds, shards: shards,
			cfg: cache.DefaultConfig(), tr: e.tr}
		if err := writeTrace(r.path, profile, e.seed, n(e.sizes)); err != nil {
			return nil, err
		}
		return r, warmUp(e.tr, r.iterate)
	}
}

// warmUp runs one op untimed and fails setup if it fails.
func warmUp(tr *tracer, op func(sp span) sample) error {
	sp := tr.root("warmup")
	s := op(sp)
	sp.end()
	if s.failed > 0 {
		return fmt.Errorf("warm-up op failed: %w", s.err)
	}
	return nil
}

func (r *replay) iterate(sp span) sample {
	s := sample{units: len(r.kinds)}
	for _, k := range r.kinds {
		k := k
		c := sp.child("core.run." + kindName(k))
		res, err := replayFile(r.path, func(st trace.Stream) (core.Result, error) {
			return core.RunShardedContext(background, k, r.cfg, core.Options{}, st, 0, 0, r.shards)
		})
		c.end()
		b, err := ledgerBytes(res, err)
		if err != nil {
			s.failed++
			s.err = err
			continue
		}
		r.ref.see(kindName(k), b)
		s.accesses += res.Requests.Accesses()
	}
	return s
}

func (r *replay) run(deadline time.Time, rec *recorder) {
	serially(deadline, rec, r.tr, "replay", r.iterate, nil)
}

// check compares every kind's ledger with a serial core.RunContext run over
// the materialized trace: streamed equals materialized, and sharded equals
// serial.
func (r *replay) check() []gate {
	gates := []gate{r.ref.gate("iterations_identical")}
	accs, err := readTrace(r.path)
	for _, k := range r.kinds {
		var want []byte
		if err == nil {
			want, err = ledgerBytes(core.RunContext(background, k, r.cfg, core.Options{}, trace.FromSlice(accs), 0))
		}
		gates = append(gates, compareGate("ledger_vs_materialized_serial."+kindName(k), want, r.ref.first[kindName(k)], err,
			"the replayed ledger differs from a serial run over the materialized trace"))
	}
	return gates
}

func (r *replay) close() error { return nil }

// --- fig9_matrix ------------------------------------------------------------

type fig9 struct {
	cfg    experiments.Config
	golden string
	tr     *tracer
	first  []experiments.ReductionPair
	ref    reference
}

func setupFig9(e *env) (instance, error) {
	cfg := experiments.Default()
	cfg.AccessesPerBench = e.sizes.matrixN
	cfg.Seed = e.seed
	cfg.Stream = true
	cfg.Workers = loadGoroutines
	f := &fig9{cfg: cfg, golden: e.sizes.golden, tr: e.tr}
	return f, warmUp(e.tr, f.iterate)
}

func (f *fig9) iterate(sp span) sample {
	c := sp.child("experiments.reduction_matrix")
	pairs, err := experiments.ReductionMatrix(f.cfg, f.cfg.Cache)
	c.end()
	var b []byte
	if err == nil {
		b, err = json.Marshal(pairs)
	}
	if err != nil {
		return sample{units: 1, failed: 1, err: err}
	}
	if f.first == nil {
		f.first = pairs
	}
	f.ref.see("pairs", b)
	return sample{units: 1, accesses: uint64(len(pairs) * len(paperKinds) * f.cfg.AccessesPerBench)}
}

func (f *fig9) run(deadline time.Time, rec *recorder) {
	serially(deadline, rec, f.tr, "matrix", f.iterate, nil)
}

func (f *fig9) pairs() []experiments.ReductionPair { return f.first }

func (f *fig9) check() []gate {
	gates := []gate{f.ref.gate("iterations_identical")}
	g := gate{Name: "fig9_golden"}
	sum, err := regress.Run(regress.Options{GoldenDir: f.golden, N: 50_000, Seed: 1, Stream: true,
		Workers: loadGoroutines, Out: io.Discard}, "fig9")
	switch {
	case err != nil:
		g.Note = err.Error()
	case !sum.OK():
		g.Note = "Figure 9 drifted from golden/fig9.json"
	default:
		g.OK = true
	}
	return append(gates, g)
}

func (f *fig9) close() error { return nil }
