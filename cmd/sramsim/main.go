// Command sramsim runs one (workload, controller, cache shape) simulation
// and prints the full ledger: demand traffic, array traffic, Set-Buffer
// activity, functional cache statistics, and the modeled timing/energy.
//
// Usage:
//
//	sramsim -workload bwaves -controller wgrb -n 1000000
//	sramsim -trace requests.c8tt -controller rmw
//	sramsim -trace huge.c8tt.gz -batch 8192
//	sramsim -shards 4 -controller wg -workload mcf
//	sramsim -report run.json -workload mcf
//	sramsim -cpuprofile cpu.out -memprofile mem.out -n 10000000
//	sramsim -list
//
// The -trace flag replays a trace file (binary C8TT, gzipped, or text — the
// framing is sniffed) instead of a synthetic workload; a decode error
// mid-stream aborts the run with a non-zero exit before any results print,
// so CI can trust the exit code. Every run streams the trace in batches, so
// memory stays constant no matter the trace size; -batch tunes the batch
// length. -shards partitions the cache's sets across that many concurrent
// walks feeding one accountant stage; results stay byte-identical, and a
// shard request the cache cannot honour (Random replacement) is refused up
// front. -report writes the run's
// canonical artifact (internal/report) for the regression tooling.
// -cpuprofile/-memprofile write standard pprof profiles of the run.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"cache8t/internal/cache"
	"cache8t/internal/core"
	"cache8t/internal/energy"
	"cache8t/internal/prof"
	"cache8t/internal/report"
	"cache8t/internal/sram"
	"cache8t/internal/stats"
	"cache8t/internal/timing"
	"cache8t/internal/trace"
	"cache8t/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sramsim: ")
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	var (
		workloadName = flag.String("workload", "bwaves", "bundled workload name (see -list)")
		traceFile    = flag.String("trace", "", "binary trace file to replay instead of a workload")
		controller   = flag.String("controller", "wgrb", "conventional|rmw|localrmw|word|coalesce|wg|wgrb")
		n            = flag.Int("n", 1_000_000, "accesses to simulate (workloads only; traces replay fully)")
		seed         = flag.Uint64("seed", 1, "workload seed")
		sizeKB       = flag.Int("size", 64, "cache size in KB")
		ways         = flag.Int("ways", 4, "associativity")
		block        = flag.Int("block", 32, "block size in bytes")
		policy       = flag.String("policy", "lru", "replacement policy: lru|fifo|random|plru")
		depth        = flag.Int("depth", 1, "Set-Buffer entries (wg/wgrb)")
		noSilent     = flag.Bool("no-silent-elision", false, "disable the Dirty-bit silent-write optimization")
		countFills   = flag.Bool("count-fills", false, "include miss-handling traffic in array-access totals")
		voltage      = flag.Float64("vdd", 1.0, "operating voltage for the energy report")
		freq         = flag.Float64("freq", 2000, "operating frequency in MHz")
		reportPath   = flag.String("report", "", "write the run artifact (canonical JSON) to this path")
		batch        = flag.Int("batch", 0, "streaming batch size in accesses (0 = default)")
		shards       = flag.Int("shards", 0, "set-shard the simulation across this many goroutines (same results)")
		cpuprofile   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile   = flag.String("memprofile", "", "write a heap profile to this file at exit")
		list         = flag.Bool("list", false, "list bundled workloads and exit")
		showVersion  = flag.Bool("version", false, "print version (git SHA + artifact schema) and exit")
	)
	flag.Parse()

	if *showVersion {
		fmt.Println(report.Version("sramsim"))
		return nil
	}
	if *list {
		fmt.Println(strings.Join(workload.Names(), "\n"))
		return nil
	}

	kind, err := core.ParseKind(*controller)
	if err != nil {
		return err
	}
	pol, err := cache.ParsePolicy(*policy)
	if err != nil {
		return err
	}
	cfg := cache.Config{
		SizeBytes:  *sizeKB * 1024,
		Ways:       *ways,
		BlockBytes: *block,
		Policy:     pol,
		Seed:       *seed,
	}
	opts := core.Options{
		BufferDepth:          *depth,
		DisableSilentElision: *noSilent,
		CountFillTraffic:     *countFills,
	}

	stopCPU, err := prof.StartCPU(*cpuprofile)
	if err != nil {
		return err
	}
	defer stopCPU()

	var stream trace.Stream
	var sourceName string
	if *traceFile != "" {
		f, err := os.Open(*traceFile)
		if err != nil {
			return err
		}
		defer f.Close()
		// Sniffs gzip, binary C8TT, or text framing; the run never holds more
		// than one decoded batch of the file.
		stream, err = trace.NewAnyReader(f)
		if err != nil {
			return err
		}
		sourceName = *traceFile
		*n = 0 // replay fully
	} else {
		gen, err := workload.Stream(*workloadName, *seed)
		if err != nil {
			return err
		}
		stream = gen
		sourceName = *workloadName
	}

	// Refuse, up front, a shard request the driver would silently run
	// serially — asking for parallelism and getting none is a surprise
	// worth an error, not a log line. A clamp (fewer shards than asked, but
	// still parallel) only warns.
	plan := core.PlanShards(kind, cfg, *shards)
	if err := plan.Err(); err != nil {
		return fmt.Errorf("-shards %d: %v", *shards, err)
	}
	if plan.Reason != "" {
		log.Printf("-shards %d: %s", *shards, plan.Reason)
	}

	start := time.Now()
	// Decode failures come back with the clean-access count attached, and
	// the run degrades to the serial driver whenever the plan above fell
	// back.
	res, err := core.RunShardedContext(context.Background(), kind, cfg, opts, stream, *n, *batch, *shards)
	if err != nil {
		return err
	}
	wall := time.Since(start)

	if err := printResult(sourceName, cfg, res, *voltage, *freq); err != nil {
		return err
	}

	if *reportPath != "" {
		art := report.New("sramsim", *seed)
		art.SetConfig("source", sourceName)
		art.SetConfig("controller", kind)
		art.SetConfig("n", *n)
		art.SetConfig("cache_size_bytes", cfg.SizeBytes)
		art.SetConfig("cache_ways", cfg.Ways)
		art.SetConfig("cache_block_bytes", cfg.BlockBytes)
		art.SetConfig("cache_policy", cfg.Policy)
		art.SetConfig("buffer_depth", *depth)
		art.SetConfig("silent_elision_disabled", *noSilent)
		art.SetConfig("count_fill_traffic", *countFills)
		art.SetConfig("vdd", *voltage)
		art.SetConfig("freq_mhz", *freq)
		art.AddController(res)
		art.SetMetric("accesses_per_request", res.AccessesPerRequest())
		art.SetMetric("miss_rate", res.Cache.MissRate())
		tp := timing.DefaultParams()
		if trep, err := timing.Evaluate(res, tp); err == nil {
			art.SetMetric("cpi", trep.CPI())
			art.SetMetric("avg_read_latency_cycles", trep.AvgReadLatency)
		}
		if erep, err := energy.Evaluate(res, sram.OperatingPoint{VoltageV: *voltage, FreqMHz: *freq}, timing.DefaultParams()); err == nil {
			art.SetMetric("dynamic_j", erep.DynamicJ)
			art.SetMetric("leakage_j", erep.LeakageJ)
		}
		art.WallMS = float64(wall.Microseconds()) / 1e3
		if err := report.WriteFile(*reportPath, art); err != nil {
			return err
		}
		fmt.Printf("report written to %s\n", *reportPath)
	}
	return prof.WriteHeap(*memprofile)
}

func printResult(source string, cfg cache.Config, res core.Result, vdd, freqMHz float64) error {
	g := res.Geometry
	fmt.Printf("source      %s\n", source)
	fmt.Printf("cache       %s, %v replacement\n", g, cfg.Policy)
	fmt.Printf("controller  %s\n\n", res.Controller)

	t := stats.NewTable("Demand traffic", "metric", "value")
	t.AddRowf("reads", res.Counters.DemandReads)
	t.AddRowf("writes", res.Counters.DemandWrites)
	t.AddRowf("instructions", res.Requests.Instructions)
	t.AddRowf("reads/instr", stats.Pct(res.Requests.ReadFrac()))
	t.AddRowf("writes/instr", stats.Pct(res.Requests.WriteFrac()))
	t.AddRowf("miss rate", stats.Pct(res.Cache.MissRate()))
	if err := render(t); err != nil {
		return err
	}

	t = stats.NewTable("Array traffic", "metric", "value")
	t.AddRowf("array reads", res.ArrayReads)
	t.AddRowf("array writes", res.ArrayWrites)
	t.AddRowf("total array accesses", res.ArrayAccesses())
	t.AddRowf("accesses/request", res.AccessesPerRequest())
	if err := render(t); err != nil {
		return err
	}

	c := res.Counters
	if c.BufferFills > 0 || c.TagProbes > 0 {
		t = stats.NewTable("Set-Buffer activity", "metric", "value")
		t.AddRowf("tag probes", c.TagProbes)
		t.AddRowf("tag hits", c.TagHits)
		t.AddRowf("grouped writes", c.GroupedWrites)
		t.AddRowf("silent writes", c.SilentWrites)
		t.AddRowf("buffer fills", c.BufferFills)
		t.AddRowf("buffer write-backs", c.BufferWritebacks)
		t.AddRowf("premature write-backs", c.PrematureWBs)
		t.AddRowf("write-backs elided (clean Dirty)", c.SilentElidedWBs)
		t.AddRowf("bypassed reads", c.BypassedReads)
		if err := render(t); err != nil {
			return err
		}
	}

	tp := timing.DefaultParams()
	trep, err := timing.Evaluate(res, tp)
	if err != nil {
		return err
	}
	erep, err := energy.Evaluate(res, sram.OperatingPoint{VoltageV: vdd, FreqMHz: freqMHz}, tp)
	if err != nil {
		return err
	}
	t = stats.NewTable(fmt.Sprintf("Modeled timing & energy (%.2fV/%.0fMHz)", vdd, freqMHz), "metric", "value")
	t.AddRowf("CPI", fmt.Sprintf("%.4f", trep.CPI()))
	t.AddRowf("avg read latency (cycles)", fmt.Sprintf("%.3f", trep.AvgReadLatency))
	t.AddRowf("read-port utilization", stats.Pct(trep.ReadPortUtilization))
	t.AddRowf("write-port utilization", stats.Pct(trep.WritePortUtilization))
	t.AddRowf("dynamic energy", fmt.Sprintf("%.3e J", erep.DynamicJ))
	t.AddRowf("leakage energy", fmt.Sprintf("%.3e J", erep.LeakageJ))
	t.AddRowf("energy/access", fmt.Sprintf("%.3f nJ", energy.PerAccessJ(erep, res.Requests.Accesses())*1e9))
	return render(t)
}

func render(t *stats.Table) error {
	if err := t.Render(os.Stdout); err != nil {
		return err
	}
	fmt.Println()
	return nil
}
