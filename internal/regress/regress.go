// Package regress re-runs the paper's headline experiment matrix and diffs
// the resulting artifacts against checked-in golden baselines, with
// per-metric tolerance bands and bootstrap confidence intervals. It is the
// machinery behind cmd/regress and the CI golden-diff job: a refactor that
// silently drifts the reproduced figures fails here even when every unit
// test still passes.
package regress

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"cache8t/internal/cache"
	"cache8t/internal/core"
	"cache8t/internal/engine"
	"cache8t/internal/experiments"
	"cache8t/internal/report"
	"cache8t/internal/rescache"
	"cache8t/internal/stats"
	"cache8t/internal/trace"
	"cache8t/internal/workload"
)

// Options scopes one regression run.
type Options struct {
	// GoldenDir holds the golden/<check>.json baselines.
	GoldenDir string
	// N is the stream length per benchmark. Goldens are pinned at a specific
	// N; CI uses a small one so the gate stays fast.
	N int
	// Seed is the workload master seed; goldens embed it in their config, so
	// changing it fails the comparability check rather than reporting drift.
	Seed uint64
	// Workers bounds the engine fan-out (0 = one per CPU). Never affects the
	// numbers, only the wall-clock.
	Workers int
	// Update regenerates the goldens in place instead of diffing.
	Update bool
	// Full renders passing metrics in the diff tables too.
	Full bool
	// Stream rebuilds every artifact from streamed traces (constant memory)
	// instead of materialized slices. Goldens are mode-agnostic: streamed and
	// materialized runs produce byte-identical artifacts, and CI runs both to
	// prove it.
	Stream bool
	// Shards > 1 runs set-local controllers set-sharded
	// (core.RunShardedContext); controllers with cross-set state fall back
	// to the serial driver. Goldens are shard-agnostic — sharded runs must
	// reproduce the serial artifacts byte-identically, and CI runs both to
	// prove it.
	Shards int
	// Context cancels in-flight simulations.
	Context context.Context
	// Out receives progress lines and diff tables (default os.Stdout).
	Out io.Writer
	// Cache, when set, memoizes check artifacts by (check, n, seed): a
	// repeat run with the same result-shaping knobs decodes the stored
	// canonical bytes instead of re-simulating. Stream and Shards stay out
	// of the key — they are execution knobs that provably do not change
	// artifacts — so do not point a cached run at the CAS when the purpose
	// of the run is to prove that equivalence. Update always rebuilds.
	Cache *rescache.Cache
}

// DefaultOptions is the pinned CI configuration: small-N but large enough
// that every controller path (grouping, silent elision, bypass, premature
// write-backs) is exercised on all 25 benchmarks.
func DefaultOptions() Options {
	return Options{GoldenDir: "golden", N: 50_000, Seed: 1}
}

func (o Options) out() io.Writer {
	if o.Out != nil {
		return o.Out
	}
	return os.Stdout
}

func (o Options) ctx() context.Context {
	if o.Context != nil {
		return o.Context
	}
	return context.Background()
}

// expConfig translates Options into the experiments configuration.
func (o Options) expConfig() experiments.Config {
	cfg := experiments.Default()
	cfg.AccessesPerBench = o.N
	cfg.Seed = o.Seed
	cfg.Workers = o.Workers
	cfg.Context = o.ctx()
	cfg.Stream = o.Stream
	cfg.Shards = o.Shards
	return cfg
}

// Check is one golden-backed regression: it rebuilds an artifact from
// scratch and owns the tolerance bands its metrics are judged under.
type Check struct {
	// ID names the check and its golden file (golden/<ID>.json).
	ID string
	// Title is the human description used in diff tables.
	Title string
	// Bands are the per-metric tolerances (prefix-matched; see report.Bands).
	// Metrics without a band compare exactly.
	Bands report.Bands
	// Build reruns the experiment and assembles the artifact.
	Build func(Options) (*report.Artifact, error)
}

// reductionBands is the shared tolerance set for the Figure 9/10/11 family:
// per-benchmark reductions get half a percentage point of absolute headroom
// (benign float reassociation in a refactor), means a tighter quarter point,
// and the bootstrap CI bounds the same headroom as the per-benchmark values
// they resample.
var reductionBands = report.Bands{
	"":      {Abs: 0.005},
	"mean.": {Abs: 0.0025},
	"ci95.": {Abs: 0.005},
}

// Checks returns the regression matrix in paper order: the figures whose
// numbers are the repository's reason to exist.
func Checks() []Check {
	return []Check{
		{
			ID:    "fig8",
			Title: "Figure 8 worked example — exact array-op ledger per scheme",
			// The nine-access worked example is fully deterministic and tiny;
			// everything compares exactly (the zero band).
			Bands: report.Bands{},
			Build: buildFig8,
		},
		{
			ID:    "rmw",
			Title: "§1 RMW access inflation vs conventional writes",
			Bands: report.Bands{
				"inflation.": {Abs: 0.005},
				"mean.":      {Abs: 0.0025},
				"max.":       {Abs: 0.005},
				// Raw array-access totals compare exactly: they are integer
				// event counts and any change means the controllers changed.
			},
			Build: buildRMW,
		},
		{
			ID:    "fig9",
			Title: "Figure 9 access reduction, 64KB/4w/32B",
			Bands: reductionBands,
			Build: func(o Options) (*report.Artifact, error) {
				return buildReduction(o, "fig9", cache.DefaultConfig())
			},
		},
		{
			ID:    "fig10",
			Title: "Figure 10 access reduction, 32KB/4w/64B",
			Bands: reductionBands,
			Build: func(o Options) (*report.Artifact, error) {
				shape := cache.DefaultConfig()
				shape.SizeBytes = 32 * 1024
				shape.BlockBytes = 64
				return buildReduction(o, "fig10", shape)
			},
		},
		{
			ID:    "fig11",
			Title: "Figure 11 access reduction vs capacity (32KB & 128KB, 4w/32B)",
			Bands: reductionBands,
			Build: buildFig11,
		},
		{
			ID:    "hier",
			Title: "Two-level hierarchy — L2-visible traffic per L1 scheme, TS and 9T points",
			Bands: hierBands,
			Build: buildHier,
		},
	}
}

// CheckByID resolves one check.
func CheckByID(id string) (Check, error) {
	ids := make([]string, 0, len(Checks()))
	for _, c := range Checks() {
		if c.ID == id {
			return c, nil
		}
		ids = append(ids, c.ID)
	}
	return Check{}, fmt.Errorf("regress: unknown check %q (have %v)", id, ids)
}

// Summary is the outcome of a Run.
type Summary struct {
	// Passed/Failed/Updated list check IDs by outcome.
	Passed  []string
	Failed  []string
	Updated []string
}

// OK reports whether nothing drifted.
func (s *Summary) OK() bool { return len(s.Failed) == 0 }

// Run executes the named checks (all when ids is empty) against the goldens
// under opts.GoldenDir. With opts.Update it regenerates the goldens instead.
// Drift renders a per-metric diff table on opts.Out; the error is reserved
// for harness failures (missing golden, simulation error), not drift —
// callers decide the exit code from the Summary.
func Run(opts Options, ids ...string) (*Summary, error) {
	checks := Checks()
	if len(ids) > 0 {
		checks = checks[:0:0]
		for _, id := range ids {
			c, err := CheckByID(id)
			if err != nil {
				return nil, err
			}
			checks = append(checks, c)
		}
	}
	sum := &Summary{}
	for _, c := range checks {
		start := time.Now()
		art, cached, err := buildCached(opts, c)
		if err != nil {
			return sum, fmt.Errorf("regress: %s: %w", c.ID, err)
		}
		art.WallMS = float64(time.Since(start).Microseconds()) / 1e3
		note := ""
		if cached {
			note = " (cached)"
		}
		path := filepath.Join(opts.GoldenDir, c.ID+".json")
		if opts.Update {
			if err := report.WriteFile(path, art); err != nil {
				return sum, fmt.Errorf("regress: %s: %w", c.ID, err)
			}
			fmt.Fprintf(opts.out(), "regress: %s: golden updated (%s, %d metrics, %v)\n",
				c.ID, path, len(art.Metrics), time.Since(start).Round(time.Millisecond))
			sum.Updated = append(sum.Updated, c.ID)
			continue
		}
		golden, err := report.ReadFile(path)
		if err != nil {
			return sum, fmt.Errorf("regress: %s: %w (run with -update to create goldens)", c.ID, err)
		}
		diff := report.Compare(golden, art, c.Bands)
		if diff.OK() && !opts.Full {
			fmt.Fprintf(opts.out(), "regress: %s ok — %d metrics within tolerance (%v)%s\n",
				c.ID, len(diff.Metrics), time.Since(start).Round(time.Millisecond), note)
			sum.Passed = append(sum.Passed, c.ID)
			continue
		}
		status := "DRIFT"
		if diff.OK() {
			status = "ok"
		}
		t := diff.Table(fmt.Sprintf("regress: %s [%s] — %s", c.ID, status, c.Title), opts.Full)
		if err := t.Render(opts.out()); err != nil {
			return sum, err
		}
		fmt.Fprintln(opts.out())
		if diff.OK() {
			sum.Passed = append(sum.Passed, c.ID)
		} else {
			sum.Failed = append(sum.Failed, c.ID)
		}
	}
	return sum, nil
}

// buildCached builds a check's artifact, through the result cache when one
// is attached: the stored blob is the artifact's canonical encoding, so a
// hit decodes to exactly what a rebuild would produce (content hash
// re-verified by both the CAS and report.Decode). Update runs always
// rebuild — regenerating goldens from a cache would be circular.
func buildCached(opts Options, c Check) (*report.Artifact, bool, error) {
	if opts.Cache == nil || opts.Update {
		art, err := c.Build(opts)
		return art, false, err
	}
	key, err := report.Hash(map[string]string{
		"kind":  "regress-check",
		"check": c.ID,
		"n":     fmt.Sprint(opts.N),
		"seed":  fmt.Sprint(opts.Seed),
	})
	if err != nil {
		return nil, false, err
	}
	blob, cached, err := opts.Cache.Do(opts.ctx(), key, func() ([]byte, error) {
		art, err := c.Build(opts)
		if err != nil {
			return nil, err
		}
		return report.Encode(art)
	})
	if err != nil {
		return nil, false, err
	}
	art, err := report.Decode(blob)
	return art, cached, err
}

// newArtifact stamps the run configuration shared by every check.
func newArtifact(opts Options, check string, shape cache.Config) *report.Artifact {
	a := report.New("regress", opts.Seed)
	a.SetConfig("check", check)
	a.SetConfig("n", opts.N)
	a.SetConfig("seed", opts.Seed)
	a.SetConfig("cache_size_bytes", shape.SizeBytes)
	a.SetConfig("cache_ways", shape.Ways)
	a.SetConfig("cache_block_bytes", shape.BlockBytes)
	a.SetConfig("cache_policy", shape.Policy)
	return a
}

// buildFig8 replays the §4.3 worked example through all four schemes and
// records the complete per-controller event ledgers — the most fine-grained
// drift detector in the matrix: any change to controller bookkeeping moves
// at least one exact-compared counter.
func buildFig8(opts Options) (*report.Artifact, error) {
	shape := cache.DefaultConfig()
	a := newArtifact(opts, "fig8", shape)
	g := cache.MustGeometry(shape.SizeBytes, shape.Ways, shape.BlockBytes)
	stream := experiments.Fig8Stream(g)
	a.SetConfig("stream_len", len(stream))
	for _, k := range []core.Kind{core.Conventional, core.RMW, core.WG, core.WGRB} {
		res, err := core.RunContext(opts.ctx(), k, shape, core.Options{}, trace.FromSlice(stream), 0)
		if err != nil {
			return nil, err
		}
		a.AddController(res)
		a.SetMetric(k.String()+".array_accesses", float64(res.ArrayAccesses()))
	}
	return a, nil
}

// buildRMW pins the §1 inflation claim: per-benchmark conventional and RMW
// array totals (exact) plus the relative increases (banded).
func buildRMW(opts Options) (*report.Artifact, error) {
	shape := cache.DefaultConfig()
	a := newArtifact(opts, "rmw", shape)
	rows, err := experiments.InflationMatrix(opts.expConfig())
	if err != nil {
		return nil, err
	}
	incs := make([]float64, 0, len(rows))
	for i, prof := range workload.Profiles() {
		r := rows[i]
		a.SetMetric("conventional_accesses."+prof.Name, float64(r.Conventional))
		a.SetMetric("rmw_accesses."+prof.Name, float64(r.RMW))
		a.SetMetric("inflation."+prof.Name, r.Increase)
		incs = append(incs, r.Increase)
	}
	a.SetMetric("mean.inflation", stats.Mean(incs))
	a.SetMetric("max.inflation", stats.Max(incs))
	return a, nil
}

// buildReduction pins one Figure 9/10-style shape: per-benchmark WG and
// WG+RB reductions, their means, and deterministic bootstrap CIs on the
// means (the paper's headline 27%/33% numbers are means over 25 benchmarks;
// the CI says how tight that mean is at this N).
func buildReduction(opts Options, check string, shape cache.Config) (*report.Artifact, error) {
	a := newArtifact(opts, check, shape)
	pairs, err := experiments.ReductionMatrix(opts.expConfig(), shape)
	if err != nil {
		return nil, err
	}
	addReductionMetrics(a, "", pairs, opts.Seed)
	return a, nil
}

// buildFig11 pins the capacity-sensitivity figure: the same reductions at
// 32KB and 128KB, prefixed per capacity.
func buildFig11(opts Options) (*report.Artifact, error) {
	base := cache.DefaultConfig()
	a := newArtifact(opts, "fig11", base)
	for _, size := range []struct {
		prefix string
		sizeKB int
	}{{"32k.", 32}, {"128k.", 128}} {
		shape := base
		shape.SizeBytes = size.sizeKB * 1024
		pairs, err := experiments.ReductionMatrix(opts.expConfig(), shape)
		if err != nil {
			return nil, err
		}
		addReductionMetrics(a, size.prefix, pairs, opts.Seed)
	}
	return a, nil
}

// addReductionMetrics records one shape's reduction pairs under prefix:
// per-benchmark values, means, and 95% bootstrap CIs for the means.
func addReductionMetrics(a *report.Artifact, prefix string, pairs []experiments.ReductionPair, seed uint64) {
	var wgs, rbs []float64
	for i, prof := range workload.Profiles() {
		a.SetMetric(prefix+"wg."+prof.Name, pairs[i].WG)
		a.SetMetric(prefix+"wgrb."+prof.Name, pairs[i].WGRB)
		wgs = append(wgs, pairs[i].WG)
		rbs = append(rbs, pairs[i].WGRB)
	}
	a.SetMetric(prefix+"mean.wg", stats.Mean(wgs))
	a.SetMetric(prefix+"mean.wgrb", stats.Mean(rbs))
	for name, xs := range map[string][]float64{"wg": wgs, "wgrb": rbs} {
		// Deterministic in (xs, seed): identical runs produce identical CIs,
		// so the bounds golden-compare like any other metric.
		ci, err := stats.BootstrapMeanCI(xs, 0.95, 2000, seed)
		if err != nil {
			continue
		}
		a.SetMetric(prefix+"ci95."+name+".low", ci.Low)
		a.SetMetric(prefix+"ci95."+name+".high", ci.High)
	}
}

// BenchEntry is one appended record of engine throughput: the serial-vs-
// parallel trajectory BENCH_regress.json accumulates across commits.
type BenchEntry struct {
	Schema          int     `json:"schema"`
	GitSHA          string  `json:"git_sha"`
	UnixMS          int64   `json:"unix_ms"`
	N               int     `json:"n"`
	Benchmarks      int     `json:"benchmarks"`
	SerialWallMS    float64 `json:"serial_wall_ms"`
	SerialItemsPS   float64 `json:"serial_items_per_sec"`
	ParallelWorkers int     `json:"parallel_workers"`
	ParallelWallMS  float64 `json:"parallel_wall_ms"`
	ParallelItemsPS float64 `json:"parallel_items_per_sec"`
	Speedup         float64 `json:"speedup"`
}

// Bench measures the engine's serial and parallel throughput on the Figure 9
// workload matrix (every benchmark through RMW/WG/WGRB on the baseline
// shape) and returns the comparison.
func Bench(opts Options) (BenchEntry, error) {
	shape := cache.DefaultConfig()
	profs := workload.Profiles()
	jobs := make([]engine.Job[uint64], len(profs))
	for i, p := range profs {
		p := p
		jobs[i] = engine.Job[uint64]{
			Label:  p.Name,
			Weight: 3 * int64(opts.N),
			Fn: func(ctx context.Context) (uint64, error) {
				accs, err := workload.Take(p, opts.Seed, opts.N)
				if err != nil {
					return 0, err
				}
				res, err := core.RunAll(ctx, []core.Kind{core.RMW, core.WG, core.WGRB}, shape, core.Options{}, accs)
				if err != nil {
					return 0, err
				}
				return res[0].ArrayAccesses(), nil
			},
		}
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	e := BenchEntry{
		Schema:          report.SchemaVersion,
		GitSHA:          report.GitSHA(),
		UnixMS:          time.Now().UnixMilli(),
		N:               opts.N,
		Benchmarks:      len(profs),
		ParallelWorkers: workers,
	}
	for _, mode := range []struct {
		workers int
		wall    *float64
		ips     *float64
	}{
		{1, &e.SerialWallMS, &e.SerialItemsPS},
		{workers, &e.ParallelWallMS, &e.ParallelItemsPS},
	} {
		eng := engine.New[uint64](engine.Config{Workers: mode.workers})
		outs, err := eng.Run(opts.ctx(), jobs)
		if err != nil {
			return e, err
		}
		if _, err := engine.Values(outs); err != nil {
			return e, err
		}
		snap := eng.Snapshot()
		*mode.wall = snap.Wall.Seconds() * 1e3
		*mode.ips = snap.ItemsPerSecond
	}
	if e.SerialItemsPS > 0 {
		e.Speedup = e.ParallelItemsPS / e.SerialItemsPS
	}
	return e, nil
}

// AppendBench appends entry to the throughput ledger at path; see
// AppendLedger for the file discipline.
func AppendBench(path string, entry BenchEntry) error {
	return AppendLedger(path, entry)
}
