// Package experiments regenerates every table and figure in the paper's
// evaluation (plus the ablations DESIGN.md calls out). Each experiment is a
// named runner producing a stats.Table whose rows are benchmarks and whose
// final rows carry the measured mean next to the paper's reported value, so
// paper-vs-measured comparison is part of the output itself.
package experiments

import (
	"context"
	"fmt"
	"sort"

	"cache8t/internal/cache"
	"cache8t/internal/core"
	"cache8t/internal/engine"
	"cache8t/internal/stats"
	"cache8t/internal/trace"
	"cache8t/internal/workload"
)

// Config scopes an experiment run.
type Config struct {
	// AccessesPerBench is the stream length simulated per benchmark. The
	// paper runs 10 B instructions per benchmark; our generators are
	// stationary, so a few hundred thousand accesses give stable statistics
	// (DESIGN.md §6).
	AccessesPerBench int
	// Seed drives every generator; same seed, same tables.
	Seed uint64
	// Cache is the baseline cache shape (§5.1: 64 KB, 4-way, 32 B, LRU).
	Cache cache.Config
	// Opts tunes the controllers.
	Opts core.Options
	// Workers bounds the engine fan-out used by the grid helpers (0 means
	// one per CPU). Tables are identical for every value — the engine
	// aggregates by submission index — so this is purely a speed knob.
	Workers int
	// Stream runs every benchmark from a freshly opened generator stream
	// instead of a materialized slice, so memory stays constant regardless of
	// AccessesPerBench. Generators are deterministic, so tables are
	// bit-identical in both modes; streaming trades the one-time generation
	// cost per re-open for the slice's footprint.
	Stream bool
	// Context, when non-nil, cancels in-flight simulations; cmd/figures
	// wires its -timeout flag here.
	Context context.Context
	// Shards, when > 1, walks each benchmark's cache as Shards concurrent
	// set-partitions, every scheme of the walk accounting in one stage
	// (core.RunSchemes). Random-policy caches fall back to the serial
	// driver automatically, and hierarchy and port-logged runs are serial,
	// so tables are bit-identical for every value — like Workers, purely a
	// speed knob.
	Shards int
}

// ctx returns the run's context, defaulting to Background.
func (c Config) ctx() context.Context {
	if c.Context != nil {
		return c.Context
	}
	return context.Background()
}

// Default returns the paper's baseline configuration.
func Default() Config {
	return Config{
		AccessesPerBench: 400_000,
		Seed:             1,
		Cache:            cache.DefaultConfig(),
	}
}

// geometry returns the configured cache geometry.
func (c Config) geometry() cache.Geometry {
	return cache.MustGeometry(c.Cache.SizeBytes, c.Cache.Ways, c.Cache.BlockBytes)
}

// Experiment is one reproducible paper artifact.
type Experiment struct {
	// ID is the CLI handle: "fig3" ... "fig11", "rmw", "area", "perf",
	// "ablation-silent", "ablation-depth", "ablation-related".
	ID string
	// Title describes the artifact and its paper anchor.
	Title string
	// Run produces the table.
	Run func(Config) (*stats.Table, error)
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{ID: "fig3", Title: "Figure 3: read/write access frequency per instruction", Run: Fig3},
		{ID: "fig4", Title: "Figure 4: consecutive same-set access scenarios", Run: Fig4},
		{ID: "fig5", Title: "Figure 5: silent write frequency", Run: Fig5},
		{ID: "rmw", Title: "§1/§5: RMW cache-access inflation over conventional writes", Run: RMWInflation},
		{ID: "fig8", Title: "Figure 8: worked request-stream example", Run: Fig8},
		{ID: "fig9", Title: "Figure 9: access reduction, 64KB/4w/32B", Run: Fig9},
		{ID: "fig10", Title: "Figure 10: access reduction, 32KB/4w/64B blocks", Run: Fig10},
		{ID: "fig11", Title: "Figure 11: access reduction vs cache size (32KB, 128KB)", Run: Fig11},
		{ID: "area", Title: "§5.4: area overhead of the Set-Buffer and Tag-Buffer", Run: Area},
		{ID: "perf", Title: "§5.5 quantified: timing and energy across controllers", Run: PerfPower},
		{ID: "ports", Title: "E9b: cycle-accurate port simulation vs analytic model", Run: Ports},
		{ID: "groups", Title: "write-group size distribution under WG", Run: Groups},
		{ID: "ecc", Title: "§2: bit interleaving vs multi-bit soft errors (SEC-DED)", Run: ECC},
		{ID: "mix", Title: "multiprogrammed mixes: context switches vs the Set-Buffer", Run: Mix},
		{ID: "dvfs", Title: "§1 quantified: governed cache energy, 6T wall vs 8T floor", Run: DVFS},
		{ID: "alloc", Title: "allocation-policy sensitivity (write-allocate vs write-around)", Run: Alloc},
		{ID: "fills", Title: "counting-convention sensitivity: include miss traffic", Run: Fills},
		{ID: "hier", Title: "two-level hierarchy: L2-visible traffic per L1 scheme", Run: Hier},
		{ID: "ablation-silent", Title: "A1: WG with silent-write elision disabled", Run: AblationSilent},
		{ID: "ablation-depth", Title: "A2: Set-Buffer depth sweep", Run: AblationDepth},
		{ID: "ablation-related", Title: "A3: related-work comparison (RMW/LocalRMW/WordGranularity/WG+RB)", Run: AblationRelated},
	}
}

// ByID finds an experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	ids := make([]string, 0, len(All()))
	for _, e := range All() {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return Experiment{}, fmt.Errorf("experiments: unknown id %q (have %v)", id, ids)
}

// sources builds one trace source per benchmark profile in cfg's mode:
// materialized (replayable cached slices) or streaming (fresh generators per
// open, constant memory).
func (c Config) sources() []*workload.Source {
	return workload.Sources(workload.Profiles(), c.Seed, c.AccessesPerBench, c.Stream)
}

// benchMap fans fn out across the benchmark suite on the engine — one job
// per profile, covering both trace generation and simulation — and returns
// the per-benchmark values in profile order. It is the one per-benchmark
// helper: every experiment builds its rows, and sums its means, from the
// values in that order, so tables do not depend on Workers.
func benchMap[T any](cfg Config, fn func(prof workload.Profile, src *workload.Source) (T, error)) ([]T, error) {
	srcs := cfg.sources()
	jobs := make([]engine.Job[T], len(srcs))
	for i, src := range srcs {
		src := src
		jobs[i] = engine.Job[T]{
			Label:  src.Profile().Name,
			Weight: int64(cfg.AccessesPerBench),
			Fn: func(ctx context.Context) (T, error) {
				return fn(src.Profile(), src)
			},
		}
	}
	return engine.Map(cfg.ctx(), engine.Config{Workers: cfg.Workers}, jobs)
}

// runSchemes runs every scheme over one walk of the stream from open on a
// cache of shape shape, serially or over cfg.Shards walks: either way each
// Result is what a run of its scheme alone would give. Materialized sources
// replay their cached slice (zero-copy batches), streaming sources
// regenerate.
func runSchemes(cfg Config, shape cache.Config, open func() (trace.Stream, error), schemes ...core.Scheme) ([]core.Result, error) {
	return core.RunSchemes(cfg.ctx(), schemes, shape, open, 0, 0, cfg.Shards)
}

// reductionsVsRMW runs RMW under cfg.Opts and every scheme over one walk of
// the stream from open, and returns each scheme's access-frequency
// reduction against that RMW baseline, in order.
func reductionsVsRMW(cfg Config, shape cache.Config, open func() (trace.Stream, error), schemes ...core.Scheme) ([]float64, error) {
	res, err := runSchemes(cfg, shape, open, append([]core.Scheme{{Kind: core.RMW, Opts: cfg.Opts}}, schemes...)...)
	if err != nil {
		return nil, err
	}
	reds := make([]float64, len(schemes))
	for i := range reds {
		reds[i] = stats.Reduction(res[i+1].ArrayAccesses(), res[0].ArrayAccesses())
	}
	return reds, nil
}

// reductions runs the benchmark trace through RMW, WG, and WG+RB over the
// given cache shape and returns the two access-frequency reductions. The
// three controllers share one walk: callers already parallelize across
// benchmarks, the outer axis with 25-way width.
func reductions(cfg Config, shape cache.Config, src *workload.Source) (wg, wgrb float64, err error) {
	reds, err := reductionsVsRMW(cfg, shape, src.Stream, core.Schemes(cfg.Opts, core.WG, core.WGRB)...)
	if err != nil {
		return 0, 0, err
	}
	return reds[0], reds[1], nil
}
