// Command sweep explores the design space around the paper's sensitivity
// analysis (§5.3): access-frequency reduction across cache sizes, block
// sizes, associativities, and Set-Buffer depths, for one benchmark or the
// mean over all of them. Grid cells that share a cache shape share its
// walk: each (shape, benchmark) pair is one simulation of RMW and every
// Set-Buffer option set its cells ask for, and the pairs fan out through
// engine.Map.
//
// Usage:
//
//	sweep                          mean over all benchmarks, default grids
//	sweep -bench bwaves            single benchmark
//	sweep -n 200000 -controller wg only the WG reduction
//	sweep -workers 8 -progress     8-way parallel with live progress
//	sweep -workers 1               one job at a time (identical tables)
//	sweep -timeout 30s             per-job timeout
//	sweep -stream                  regenerate traces per job (constant memory,
//	                               identical tables)
//	sweep -shards 4                set-shard each job's one walk of RMW and
//	                               the swept schemes (identical tables)
//	sweep -cache-dir DIR           memoize each (grid cell, benchmark) pair in
//	                               a persistent result cache (shareable with
//	                               sramd); repeat sweeps skip finished cells
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime"
	"slices"
	"time"

	"cache8t/internal/cache"
	"cache8t/internal/core"
	"cache8t/internal/engine"
	"cache8t/internal/report"
	"cache8t/internal/rescache"
	"cache8t/internal/stats"
	"cache8t/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sweep: ")

	bench := flag.String("bench", "", "single benchmark (default: mean over all 25)")
	n := flag.Int("n", 200_000, "accesses per benchmark")
	seed := flag.Uint64("seed", 1, "workload seed")
	controller := flag.String("controller", "wgrb", "technique to sweep: wg|wgrb")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "parallel simulation workers (1 = serial)")
	timeout := flag.Duration("timeout", 0, "per-simulation timeout (0 = none)")
	progress := flag.Bool("progress", false, "print live job progress to stderr")
	streamMode := flag.Bool("stream", false, "stream each job's trace instead of materializing (constant memory; same tables)")
	shards := flag.Int("shards", 0, "set-shard each job's walk across this many goroutines (same tables)")
	reportPath := flag.String("report", "", "write the sweep artifact (canonical JSON) to this path")
	cacheDir := flag.String("cache-dir", "", "persistent result cache for (cell, benchmark) reductions (default: no caching)")
	showVersion := flag.Bool("version", false, "print version (git SHA + artifact schema) and exit")
	flag.Parse()
	if *showVersion {
		fmt.Println(report.Version("sweep"))
		return
	}

	kind, err := core.ParseKind(*controller)
	if err != nil {
		log.Fatal(err)
	}
	if kind != core.WG && kind != core.WGRB {
		log.Fatalf("sweep compares %v against RMW; pick wg or wgrb", kind)
	}

	// Ctrl-C cancels in-flight simulations; partial grids are never printed
	// because the tables render only after every cell completes.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var rc *rescache.Cache
	if *cacheDir != "" {
		if rc, err = rescache.Open(rescache.Config{Dir: *cacheDir}); err != nil {
			log.Fatal(err)
		}
		defer rc.Close()
	}

	profiles, err := workload.Resolve(*bench)
	if err != nil {
		log.Fatal(err)
	}
	// One Source per benchmark, shared across every grid point. Materialized
	// mode caches the slice on first use (sync.Once, so concurrent jobs are
	// fine); -stream regenerates the deterministic trace inside each job
	// instead, so memory stays flat no matter how large -n gets.
	srcs := workload.Sources(profiles, *seed, *n, *streamMode)

	ecfg := engine.Config{Workers: *workers, JobTimeout: *timeout}
	if *progress {
		ecfg.OnProgress = func(p engine.Progress) {
			fmt.Fprintf(os.Stderr, "sweep: [%d/%d] %s (%v)\n", p.Done, p.Total, p.Label, p.Elapsed.Round(time.Millisecond))
		}
	}

	// cell is one grid point; its reduction is the mean over benchmarks.
	type cell struct {
		cfg  cache.Config
		opts core.Options
	}
	// meanReductions evaluates cells and averages each over the benchmarks.
	// Cells of one cache shape share its walks: one job per (shape,
	// benchmark) runs RMW and an accountant of kind for each distinct
	// option set among the shape's cells. RMW ignores the Set-Buffer options
	// the grids vary, so one RMW serves them all. Each (cell, benchmark)
	// reduction keeps its own cache key, and a job walks only if one of its
	// keys misses. Jobs land by submission index and sums run in benchmark
	// order, so the tables are identical for any -workers.
	meanReductions := func(cells []cell) []float64 {
		type shape struct {
			cfg  cache.Config
			opts []core.Options // distinct, in first-use order
		}
		var shapes []shape
		at := make([][2]int, len(cells)) // cell → (shape, option set)
		for ci, c := range cells {
			si := slices.IndexFunc(shapes, func(s shape) bool { return s.cfg == c.cfg })
			if si < 0 {
				si, shapes = len(shapes), append(shapes, shape{cfg: c.cfg})
			}
			oi := slices.Index(shapes[si].opts, c.opts)
			if oi < 0 {
				oi, shapes[si].opts = len(shapes[si].opts), append(shapes[si].opts, c.opts)
			}
			at[ci] = [2]int{si, oi}
		}
		jobs := make([]engine.Job[[]float64], 0, len(shapes)*len(srcs))
		for si, sh := range shapes {
			schemes := []core.Scheme{{Kind: core.RMW}}
			for _, o := range sh.opts {
				schemes = append(schemes, core.Scheme{Kind: kind, Opts: o})
			}
			for bi, src := range srcs {
				prof := profiles[bi]
				jobs = append(jobs, engine.Job[[]float64]{
					Label: fmt.Sprintf("shape%d/%s", si, prof.Name),
					Fn: func(jctx context.Context) ([]float64, error) {
						var res []core.Result
						reds := make([]float64, len(sh.opts))
						for oi, o := range sh.opts {
							compute := func() (float64, error) {
								if res == nil {
									var err error
									if res, err = core.RunSchemes(jctx, schemes, sh.cfg, src.Stream, 0, 0, *shards); err != nil {
										return 0, err
									}
								}
								return stats.Reduction(res[oi+1].ArrayAccesses(), res[0].ArrayAccesses()), nil
							}
							var err error
							if rc == nil {
								reds[oi], err = compute()
							} else {
								reds[oi], err = cachedReduction(jctx, rc, reductionKey(kind, prof.Name, *n, *seed, sh.cfg, o), compute)
							}
							if err != nil {
								return nil, err
							}
						}
						return reds, nil
					},
				})
			}
		}
		vals, err := engine.Map(ctx, ecfg, jobs)
		if err != nil {
			log.Fatal(err)
		}
		means := make([]float64, len(cells))
		for ci, a := range at {
			var sum float64
			for bi := range srcs {
				sum += vals[a[0]*len(srcs)+bi][a[1]]
			}
			means[ci] = sum / float64(len(srcs))
		}
		return means
	}

	label := "mean over 25 benchmarks"
	if *bench != "" {
		label = *bench
	}
	fmt.Printf("%s reduction vs RMW — %s, %d accesses/benchmark\n\n", kind, label, *n)

	start := time.Now()
	art := report.New("sweep", *seed)
	art.SetConfig("controller", kind)
	art.SetConfig("bench", label)
	art.SetConfig("n", *n)

	// Every grid's cells, built before any runs, so a shape two grids share
	// walks once.
	// Grid 1: capacity x block size (fixed 4-way, LRU, depth 1).
	sizesKB := []int{16, 32, 64, 128, 256}
	blocks := []int{16, 32, 64, 128}
	var cells []cell
	for _, kb := range sizesKB {
		for _, b := range blocks {
			cells = append(cells, cell{cfg: cache.Config{SizeBytes: kb * 1024, Ways: 4, BlockBytes: b, Policy: cache.LRU}})
		}
	}
	// Grid 2: associativity (64KB/32B). Associativity changes the set row
	// width, so the Set-Buffer covers more blocks at higher ways.
	ways := []int{1, 2, 4, 8, 16}
	for _, w := range ways {
		cells = append(cells, cell{cfg: cache.Config{SizeBytes: 64 * 1024, Ways: w, BlockBytes: 32, Policy: cache.LRU}})
	}
	// Grid 3: Set-Buffer depth (baseline shape).
	depths := []int{1, 2, 4, 8, 16}
	for _, d := range depths {
		cells = append(cells, cell{cfg: cache.DefaultConfig(), opts: core.Options{BufferDepth: d}})
	}
	// Grid 4: replacement policy (baseline shape) — reductions are about
	// write locality, so policy should barely matter; surprises here would
	// flag a modeling bug.
	policies := []cache.PolicyKind{cache.LRU, cache.FIFO, cache.Random, cache.TreePLRU}
	for _, pol := range policies {
		cfg := cache.DefaultConfig()
		cfg.Policy = pol
		cells = append(cells, cell{cfg: cfg})
	}
	means := meanReductions(cells)

	t := stats.NewTable("capacity x block size (4-way, LRU)", gridCols("size \\ block", blocks)...)
	for i, kb := range sizesKB {
		row := []any{fmt.Sprintf("%dKB", kb)}
		for j, b := range blocks {
			row = append(row, stats.Pct(means[i*len(blocks)+j]))
			art.SetMetric(fmt.Sprintf("cap_block.%dKB.%dB", kb, b), means[i*len(blocks)+j])
		}
		t.AddRowf(row...)
	}
	render(t)
	means = means[len(sizesKB)*len(blocks):]

	t = stats.NewTable("associativity (64KB, 32B blocks)", "ways", "reduction")
	for i, w := range ways {
		t.AddRowf(fmt.Sprintf("%d", w), stats.Pct(means[i]))
		art.SetMetric(fmt.Sprintf("assoc.%d", w), means[i])
	}
	render(t)
	means = means[len(ways):]

	t = stats.NewTable("Set-Buffer depth (64KB/4w/32B)", "entries", "reduction")
	for i, d := range depths {
		t.AddRowf(fmt.Sprintf("%d", d), stats.Pct(means[i]))
		art.SetMetric(fmt.Sprintf("depth.%d", d), means[i])
	}
	render(t)
	means = means[len(depths):]

	t = stats.NewTable("replacement policy (64KB/4w/32B)", "policy", "reduction")
	for i, pol := range policies {
		t.AddRowf(pol.String(), stats.Pct(means[i]))
		art.SetMetric("policy."+pol.String(), means[i])
	}
	render(t)

	if rc != nil {
		cs := rc.Snapshot()
		fmt.Fprintf(os.Stderr, "sweep: result cache: %d hits, %d misses, %d deduped (%d entries on disk)\n",
			cs.Hits(), cs.Misses, cs.Dedups, cs.DiskEntries)
	}

	if *reportPath != "" {
		art.WallMS = float64(time.Since(start).Microseconds()) / 1e3
		if err := report.WriteFile(*reportPath, art); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("report written to %s\n", *reportPath)
	}
}

// reductionKey derives the cache key for one (grid cell, benchmark)
// reduction: every knob that shapes the number, and only those — stream
// mode, shards, and workers provably do not change the tables, exactly as
// the server's config hash excludes them.
func reductionKey(kind core.Kind, bench string, n int, seed uint64, cfg cache.Config, opts core.Options) string {
	key, err := report.Hash(map[string]string{
		"kind":                    "sweep-reduction",
		"controller":              kind.String(),
		"bench":                   bench,
		"n":                       fmt.Sprint(n),
		"seed":                    fmt.Sprint(seed),
		"cache_size_bytes":        fmt.Sprint(cfg.SizeBytes),
		"cache_ways":              fmt.Sprint(cfg.Ways),
		"cache_block_bytes":       fmt.Sprint(cfg.BlockBytes),
		"cache_policy":            cfg.Policy.String(),
		"buffer_depth":            fmt.Sprint(opts.BufferDepth),
		"silent_elision_disabled": fmt.Sprint(opts.DisableSilentElision),
		"count_fill_traffic":      fmt.Sprint(opts.CountFillTraffic),
	})
	if err != nil {
		log.Fatal(err) // canonical-encoding a string map cannot fail
	}
	return key
}

// cachedReduction memoizes one reduction value through the result cache:
// the value is the canonical encoding of {"reduction": v}, so cached sweeps
// decode the exact float a fresh simulation would produce.
func cachedReduction(ctx context.Context, rc *rescache.Cache, key string, compute func() (float64, error)) (float64, error) {
	blob, _, err := rc.Do(ctx, key, func() ([]byte, error) {
		v, err := compute()
		if err != nil {
			return nil, err
		}
		return report.Canonical(map[string]float64{"reduction": v})
	})
	if err != nil {
		return 0, err
	}
	var m map[string]float64
	if err := json.Unmarshal(blob, &m); err != nil {
		return 0, fmt.Errorf("sweep: corrupt cached reduction: %w", err)
	}
	return m["reduction"], nil
}

func gridCols(first string, blocks []int) []string {
	cols := []string{first}
	for _, b := range blocks {
		cols = append(cols, fmt.Sprintf("%dB", b))
	}
	return cols
}

func render(t *stats.Table) {
	if err := t.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}
	fmt.Println()
}
