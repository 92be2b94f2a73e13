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
// walks feeding one accountant stage; results stay byte-identical.
//
// The flags describe one server.JobSpec, and the run goes through the same
// entry (server.RunSpec) sramd runs it through. A spec sramd would refuse —
// a shard request the cache cannot honour (Random replacement), shards ×
// -size over the service cap, a cache over server.MaxCacheKB — is refused
// up front with JobSpec.Validate's field errors. -report writes
// server.Artifact for the spec (tool "sramsim", wall-clock set), so its
// config hash is the one sramd's artifact of the same spec carries.
// -cpuprofile/-memprofile write standard pprof profiles of the run.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"time"

	"cache8t/internal/cache"
	"cache8t/internal/core"
	"cache8t/internal/energy"
	"cache8t/internal/prof"
	"cache8t/internal/report"
	"cache8t/internal/server"
	"cache8t/internal/sram"
	"cache8t/internal/stats"
	"cache8t/internal/timing"
	"cache8t/internal/trace"
	"cache8t/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sramsim: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("sramsim", flag.ExitOnError)
	var (
		workloadName = fs.String("workload", "bwaves", "bundled workload name (see -list)")
		traceFile    = fs.String("trace", "", "binary trace file to replay instead of a workload")
		controller   = fs.String("controller", "wgrb", "conventional|rmw|localrmw|word|coalesce|wg|wgrb")
		n            = fs.Int("n", 1_000_000, "accesses to simulate (workloads only; traces replay fully)")
		seed         = fs.Uint64("seed", 1, "workload seed")
		sizeKB       = fs.Int("size", 64, "cache size in KB")
		ways         = fs.Int("ways", 4, "associativity")
		block        = fs.Int("block", 32, "block size in bytes")
		policy       = fs.String("policy", "lru", "replacement policy: lru|fifo|random|plru")
		depth        = fs.Int("depth", 1, "Set-Buffer entries (wg/wgrb)")
		noSilent     = fs.Bool("no-silent-elision", false, "disable the Dirty-bit silent-write optimization")
		countFills   = fs.Bool("count-fills", false, "include miss-handling traffic in array-access totals")
		voltage      = fs.Float64("vdd", 1.0, "operating voltage for the energy report")
		freq         = fs.Float64("freq", 2000, "operating frequency in MHz")
		reportPath   = fs.String("report", "", "write the run artifact (canonical JSON) to this path")
		batch        = fs.Int("batch", 0, "streaming batch size in accesses (0 = default)")
		shards       = fs.Int("shards", 0, "set-shard the simulation across this many goroutines (same results)")
		cpuprofile   = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile   = fs.String("memprofile", "", "write a heap profile to this file at exit")
		list         = fs.Bool("list", false, "list bundled workloads and exit")
		showVersion  = fs.Bool("version", false, "print version (git SHA + artifact schema) and exit")
	)
	fs.Parse(args)

	if *showVersion {
		fmt.Fprintln(stdout, report.Version("sramsim"))
		return nil
	}
	if *list {
		fmt.Fprintln(stdout, strings.Join(workload.Names(), "\n"))
		return nil
	}

	spec := server.JobSpec{
		Controller: *controller,
		Workload:   *workloadName,
		N:          *n,
		Seed:       *seed,
		Cache:      server.CacheSpec{SizeKB: *sizeKB, Ways: *ways, BlockBytes: *block, Policy: *policy},
		Options:    server.OptionsSpec{BufferDepth: *depth, DisableSilentElision: *noSilent, CountFillTraffic: *countFills},
		Shards:     *shards,
		Batch:      *batch,
		VDD:        *voltage,
		FreqMHz:    *freq,
	}
	source := *workloadName
	var open func() (trace.Stream, error) // nil: the spec's workload
	if *traceFile != "" {
		f, err := os.Open(*traceFile)
		if err != nil {
			return err
		}
		defer f.Close()
		// Sniffs gzip, binary C8TT, or text framing; the run never holds more
		// than one decoded batch of the file. A trace replays fully.
		open = func() (trace.Stream, error) { return trace.NewAnyReader(f) }
		spec.Workload, spec.N, source = "", 0, *traceFile
	}
	spec.Normalize()
	if err := spec.Validate(*traceFile != ""); err != nil {
		return err
	}

	stopCPU, err := prof.StartCPU(*cpuprofile)
	if err != nil {
		return err
	}
	defer stopCPU()

	start := time.Now()
	// Decode failures come back with the clean-access count attached.
	res, _, err := server.RunSpec(context.Background(), spec, open, server.Checkpoint{})
	if err != nil {
		return err
	}
	wall := time.Since(start)

	if err := printResult(stdout, source, spec, res); err != nil {
		return err
	}

	if *reportPath != "" {
		art := server.Artifact(spec, source, res)
		art.Tool = "sramsim"
		art.WallMS = float64(wall.Microseconds()) / 1e3
		if err := report.WriteFile(*reportPath, art); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "report written to %s\n", *reportPath)
	}
	return prof.WriteHeap(*memprofile)
}

func printResult(w io.Writer, source string, spec server.JobSpec, res core.Result) error {
	pol, err := cache.ParsePolicy(spec.Cache.Policy)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "source      %s\n", source)
	fmt.Fprintf(w, "cache       %s, %v replacement\n", res.Geometry, pol)
	fmt.Fprintf(w, "controller  %s\n\n", res.Controller)

	t := stats.NewTable("Demand traffic", "metric", "value")
	t.AddRowf("reads", res.Counters.DemandReads)
	t.AddRowf("writes", res.Counters.DemandWrites)
	t.AddRowf("instructions", res.Requests.Instructions)
	t.AddRowf("reads/instr", stats.Pct(res.Requests.ReadFrac()))
	t.AddRowf("writes/instr", stats.Pct(res.Requests.WriteFrac()))
	t.AddRowf("miss rate", stats.Pct(res.Cache.MissRate()))
	if err := render(w, t); err != nil {
		return err
	}

	t = stats.NewTable("Array traffic", "metric", "value")
	t.AddRowf("array reads", res.ArrayReads)
	t.AddRowf("array writes", res.ArrayWrites)
	t.AddRowf("total array accesses", res.ArrayAccesses())
	t.AddRowf("accesses/request", res.AccessesPerRequest())
	if err := render(w, t); err != nil {
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
		if err := render(w, t); err != nil {
			return err
		}
	}

	tp := timing.DefaultParams()
	trep, err := timing.Evaluate(res, tp)
	if err != nil {
		return err
	}
	erep, err := energy.Evaluate(res, sram.OperatingPoint{VoltageV: spec.VDD, FreqMHz: spec.FreqMHz}, tp)
	if err != nil {
		return err
	}
	t = stats.NewTable(fmt.Sprintf("Modeled timing & energy (%.2fV/%.0fMHz)", spec.VDD, spec.FreqMHz), "metric", "value")
	t.AddRowf("CPI", fmt.Sprintf("%.4f", trep.CPI()))
	t.AddRowf("avg read latency (cycles)", fmt.Sprintf("%.3f", trep.AvgReadLatency))
	t.AddRowf("read-port utilization", stats.Pct(trep.ReadPortUtilization))
	t.AddRowf("write-port utilization", stats.Pct(trep.WritePortUtilization))
	t.AddRowf("dynamic energy", fmt.Sprintf("%.3e J", erep.DynamicJ))
	t.AddRowf("leakage energy", fmt.Sprintf("%.3e J", erep.LeakageJ))
	t.AddRowf("energy/access", fmt.Sprintf("%.3f nJ", energy.PerAccessJ(erep, res.Requests.Accesses())*1e9))
	return render(w, t)
}

func render(w io.Writer, t *stats.Table) error {
	if err := t.Render(w); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w)
	return err
}
