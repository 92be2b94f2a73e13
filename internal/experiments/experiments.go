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
	// Shards, when > 1, runs each set-local controller as Shards concurrent
	// set-partitions (core.RunShardedContext). Controllers with cross-set
	// state and Random-policy caches fall back to the serial driver
	// automatically, so tables are bit-identical for every value — like
	// Workers, purely a speed knob.
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

// forEachBench runs fn over every benchmark profile with its trace source.
// In materialized mode the slices are generated up front through the engine
// (parallel across profiles) exactly as before sources existed; fn itself
// runs serially in profile order because the callers' closures append table
// rows in place.
func forEachBench(cfg Config, fn func(prof workload.Profile, src *workload.Source) error) error {
	srcs := cfg.sources()
	if !cfg.Stream {
		jobs := make([]engine.Job[int], len(srcs))
		for i, src := range srcs {
			src := src
			jobs[i] = engine.Job[int]{
				Label:  src.Profile().Name,
				Weight: int64(cfg.AccessesPerBench),
				Fn: func(context.Context) (int, error) {
					accs, err := src.Accesses()
					return len(accs), err
				},
			}
		}
		if _, err := engine.Map(cfg.ctx(), engine.Config{Workers: cfg.Workers}, jobs); err != nil {
			return fmt.Errorf("experiments: %w", err)
		}
	}
	for _, src := range srcs {
		if err := fn(src.Profile(), src); err != nil {
			return fmt.Errorf("experiments: %s: %w", src.Profile().Name, err)
		}
	}
	return nil
}

// benchMap fans fn out across the benchmark suite on the engine — one job
// per profile, covering both trace generation and simulation — and returns
// the per-benchmark values in profile order. It is the parallel counterpart
// of forEachBench for experiments whose per-benchmark work is pure, and the
// path the heavy reduction figures run on.
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

// runSource drives one controller kind over a fresh open of src on the
// batched streaming path. Materialized sources replay their cached slice
// (zero-copy batches), streaming sources regenerate; either way the result
// is identical.
func runSource(cfg Config, kind core.Kind, shape cache.Config, opts core.Options, src *workload.Source) (core.Result, error) {
	s, err := src.Stream()
	if err != nil {
		return core.Result{}, err
	}
	return core.RunShardedContext(cfg.ctx(), kind, shape, opts, s, 0, 0, cfg.Shards)
}

// runKinds drives several controller kinds over src. With sharding off the
// kinds share a single decode of the stream (core.RunEachStream broadcast);
// with Shards > 1 each kind instead runs set-sharded over its own fresh
// open. Either way results are identical to serial per-kind runs.
func runKinds(cfg Config, kinds []core.Kind, shape cache.Config, opts core.Options, src *workload.Source) ([]core.Result, error) {
	return core.RunEachStream(cfg.ctx(), kinds, shape, opts, src.Stream, 0, 0, cfg.Shards)
}

// reductions runs the benchmark trace through RMW, WG, and WG+RB over the
// given cache shape and returns the two access-frequency reductions. The
// three controllers run serially: callers already parallelize across
// benchmarks, the outer axis with 25-way width.
func reductions(cfg Config, shape cache.Config, src *workload.Source) (wg, wgrb float64, err error) {
	res, err := runKinds(cfg, []core.Kind{core.RMW, core.WG, core.WGRB}, shape, cfg.Opts, src)
	if err != nil {
		return 0, 0, err
	}
	base := res[0].ArrayAccesses()
	return stats.Reduction(res[1].ArrayAccesses(), base),
		stats.Reduction(res[2].ArrayAccesses(), base), nil
}
