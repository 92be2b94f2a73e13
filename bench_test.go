package cache8t

// The benchmark harness: one testing.B benchmark per paper table/figure
// (DESIGN.md §4). Each benchmark regenerates its artifact per iteration and
// reports the headline quantity as a custom metric, so
//
//	go test -bench=. -benchmem
//
// both exercises the full pipeline and prints the reproduced numbers
// (reduction percentages, inflation, CPI) alongside timing.

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"cache8t/internal/cache"
	"cache8t/internal/core"
	"cache8t/internal/engine"
	"cache8t/internal/experiments"
	"cache8t/internal/sram"
	"cache8t/internal/stats"
	"cache8t/internal/trace"
	"cache8t/internal/workload"
)

// benchConfig keeps per-iteration work bounded; the figures CLI uses larger
// budgets for the recorded tables.
func benchConfig() experiments.Config {
	cfg := experiments.Default()
	cfg.AccessesPerBench = 50_000
	return cfg
}

// meanPct digs the "MEAN (measured)" row out of a table and parses column
// col as a percentage ratio.
func meanPct(b *testing.B, tab *stats.Table, col int) float64 {
	b.Helper()
	for _, r := range tab.Rows {
		if strings.HasPrefix(r[0], "MEAN (measured)") || r[0] == "MEAN" {
			v, err := strconv.ParseFloat(strings.TrimSuffix(r[col], "%"), 64)
			if err != nil {
				b.Fatal(err)
			}
			return v
		}
	}
	b.Fatalf("no MEAN row in %q", tab.Title)
	return 0
}

func runExperiment(b *testing.B, run func(experiments.Config) (*stats.Table, error)) *stats.Table {
	b.Helper()
	cfg := benchConfig()
	var tab *stats.Table
	var err error
	for i := 0; i < b.N; i++ {
		tab, err = run(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	return tab
}

func BenchmarkFig3AccessFrequency(b *testing.B) {
	tab := runExperiment(b, experiments.Fig3)
	b.ReportMetric(meanPct(b, tab, 1), "reads%/instr")
	b.ReportMetric(meanPct(b, tab, 2), "writes%/instr")
}

func BenchmarkFig4ConsecutiveScenarios(b *testing.B) {
	tab := runExperiment(b, experiments.Fig4)
	b.ReportMetric(meanPct(b, tab, 5), "same-set%")
}

func BenchmarkFig5SilentWrites(b *testing.B) {
	tab := runExperiment(b, experiments.Fig5)
	b.ReportMetric(meanPct(b, tab, 1), "silent%")
}

func BenchmarkRMWTrafficInflation(b *testing.B) {
	tab := runExperiment(b, experiments.RMWInflation)
	b.ReportMetric(meanPct(b, tab, 3), "inflation%")
}

func BenchmarkFig8Example(b *testing.B) {
	cfg := benchConfig()
	g := cache.MustGeometry(cfg.Cache.SizeBytes, cfg.Cache.Ways, cfg.Cache.BlockBytes)
	stream := experiments.Fig8Stream(g)
	var total uint64
	for i := 0; i < b.N; i++ {
		res, err := core.RunSchemes(context.Background(), []core.Scheme{{Kind: core.WGRB, Opts: cfg.Opts}}, cfg.Cache,
			func() (trace.Stream, error) { return trace.FromSlice(stream), nil }, 0, 0, 0)
		if err != nil {
			b.Fatal(err)
		}
		total = res[0].ArrayAccesses()
	}
	b.ReportMetric(float64(total), "wgrb-accesses")
}

func BenchmarkFig9Reduction(b *testing.B) {
	tab := runExperiment(b, experiments.Fig9)
	b.ReportMetric(meanPct(b, tab, 1), "WG%")
	b.ReportMetric(meanPct(b, tab, 2), "WG+RB%")
}

func BenchmarkFig10BlockSize(b *testing.B) {
	tab := runExperiment(b, experiments.Fig10)
	b.ReportMetric(meanPct(b, tab, 1), "WG%")
	b.ReportMetric(meanPct(b, tab, 2), "WG+RB%")
}

func BenchmarkFig11CacheSize(b *testing.B) {
	tab := runExperiment(b, experiments.Fig11)
	b.ReportMetric(meanPct(b, tab, 1), "WG32K%")
	b.ReportMetric(meanPct(b, tab, 3), "WG128K%")
}

func BenchmarkAreaOverhead(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Area(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPerfPower(b *testing.B) {
	cfg := benchConfig()
	cfg.AccessesPerBench = 20_000 // five controllers per benchmark
	for i := 0; i < b.N; i++ {
		if _, err := experiments.PerfPower(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationNoSilent(b *testing.B) {
	cfg := benchConfig()
	cfg.AccessesPerBench = 20_000
	var tab *stats.Table
	var err error
	for i := 0; i < b.N; i++ {
		tab, err = experiments.AblationSilent(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(meanPct(b, tab, 3), "elision-delta%")
}

func BenchmarkAblationBufferDepth(b *testing.B) {
	cfg := benchConfig()
	cfg.AccessesPerBench = 20_000
	var tab *stats.Table
	var err error
	for i := 0; i < b.N; i++ {
		tab, err = experiments.AblationDepth(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(meanPct(b, tab, 1), "depth1%")
	b.ReportMetric(meanPct(b, tab, 4), "depth8%")
}

func BenchmarkAblationRelatedWork(b *testing.B) {
	cfg := benchConfig()
	cfg.AccessesPerBench = 20_000
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationRelated(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkArrayOps measures the raw event-ledger cost of the RMW sequence —
// the unit the whole evaluation counts (E10).
func BenchmarkArrayOps(b *testing.B) {
	arr, err := sram.NewArray(sram.ArrayConfig{
		Cell: sram.EightT, Rows: 512, Cols: 1024, Interleave: 4, Subarrays: 4,
	})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		arr.RMW()
	}
	if arr.ArrayAccesses() != 2*uint64(b.N) {
		b.Fatal("RMW accounting drifted")
	}
}

// BenchmarkSimulationThroughput measures end-to-end simulation speed through
// the public API: accesses simulated per second under WG+RB.
func BenchmarkSimulationThroughput(b *testing.B) {
	prof, err := workload.ProfileByName("gcc")
	if err != nil {
		b.Fatal(err)
	}
	accs, err := workload.Take(prof, 1, 100_000)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.RunSchemes(context.Background(), []core.Scheme{{Kind: core.WGRB}}, cache.DefaultConfig(),
			func() (trace.Stream, error) { return trace.FromSlice(accs), nil }, 0, 0, 0)
		if err != nil {
			b.Fatal(err)
		}
		if res[0].Requests.Accesses() != 100_000 {
			b.Fatal("short run")
		}
	}
	b.ReportMetric(float64(100_000*b.N)/b.Elapsed().Seconds(), "accesses/s")
}

func BenchmarkPortsSimulation(b *testing.B) {
	cfg := benchConfig()
	cfg.AccessesPerBench = 20_000
	var tab *stats.Table
	var err error
	for i := 0; i < b.N; i++ {
		tab, err = experiments.Ports(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	_ = tab
}

func BenchmarkGroupSizes(b *testing.B) {
	cfg := benchConfig()
	var tab *stats.Table
	var err error
	for i := 0; i < b.N; i++ {
		tab, err = experiments.Groups(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	// Mean writes per group is the last column of the MEAN row.
	for _, r := range tab.Rows {
		if r[0] == "MEAN" {
			v, err := strconv.ParseFloat(r[len(r)-1], 64)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(v, "writes/group")
		}
	}
}

func BenchmarkECCInterleaving(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ECC(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMultiprogrammedMix(b *testing.B) {
	cfg := benchConfig()
	cfg.AccessesPerBench = 30_000
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Mix(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGovernedDVFS(b *testing.B) {
	cfg := benchConfig()
	var tab *stats.Table
	var err error
	for i := 0; i < b.N; i++ {
		tab, err = experiments.DVFS(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(meanPctRow(b, tab, "WG+RB", 3), "8T-saving%")
}

// meanPctRow parses a percentage cell from a named row.
func meanPctRow(b *testing.B, tab *stats.Table, name string, col int) float64 {
	b.Helper()
	for _, r := range tab.Rows {
		if r[0] == name {
			v, err := strconv.ParseFloat(strings.TrimSuffix(r[col], "%"), 64)
			if err != nil {
				b.Fatal(err)
			}
			return v
		}
	}
	b.Fatalf("no row %q", name)
	return 0
}

func BenchmarkAllocPolicy(b *testing.B) {
	cfg := benchConfig()
	cfg.AccessesPerBench = 30_000
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Alloc(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineSweep pits the serial execution path against the worker
// pool on a Figure 9-shaped workload (RMW+WG+WGRB over several benchmarks)
// and reports throughput in simulated accesses per second — the perf
// baseline future scaling PRs measure against.
func BenchmarkEngineSweep(b *testing.B) {
	profs := workload.Profiles()[:8]
	const perBench = 30_000
	kinds := []core.Kind{core.RMW, core.WG, core.WGRB}
	shape := cache.DefaultConfig()
	var jobs []engine.Job[core.Result]
	for _, p := range profs {
		accs, err := workload.Take(p, 1, perBench)
		if err != nil {
			b.Fatal(err)
		}
		for _, k := range kinds {
			jobs = append(jobs, engine.Job[core.Result]{
				Label: k.String(),
				Fn: func(ctx context.Context) (core.Result, error) {
					return core.RunContext(ctx, k, shape, core.Options{}, trace.FromSlice(accs), 0)
				},
			})
		}
	}
	accessesPerRun := float64(perBench * len(jobs))

	pool := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		pool = append(pool, n)
	}
	for _, workers := range pool {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			eng := engine.New[core.Result](engine.Config{Workers: workers})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				outs, err := eng.Run(context.Background(), jobs)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := engine.Values(outs); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(accessesPerRun*float64(b.N)/b.Elapsed().Seconds(), "accesses/s")
		})
	}
}

func BenchmarkFillsCounting(b *testing.B) {
	cfg := benchConfig()
	cfg.AccessesPerBench = 30_000
	var tab *stats.Table
	var err error
	for i := 0; i < b.N; i++ {
		tab, err = experiments.Fills(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(meanPctRow(b, tab, "requests + fills/evictions", 2), "WG+RB-with-fills%")
}
