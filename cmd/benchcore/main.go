// Command benchcore times the controller hot path and appends one
// identity-checked entry to BENCH_core.json, the throughput trajectory
// across commits. Every entry times the same binary trace two ways:
// "streamed" decodes it batch by batch as it replays, "materialized" decodes
// it whole into a slice first. -scale adds the set-sharded driver at each
// listed shard count, on the -controller kind; -hier times the two-level
// driver instead.
//
// The modes run round-robin for regress.Rounds rounds, rotating which mode
// goes first, and every run's result must be identical to the first run's.
// The entry records each mode's median and quartile wall times and its
// ratio over streamed (streamed median / mode median), with the quartiles
// of its per-round ratios as a band, plus gomaxprocs/num_cpu.
//
// Usage:
//
//	benchcore                   WG, 1M accesses, append to BENCH_core.json
//	benchcore -n 100000         quicker run
//	benchcore -scale 1,2,4,8    also the sharded driver at 1/2/4/8 shards (RMW)
//	benchcore -scale 1,2,4 -controller wg  the same on WG
//	benchcore -hier             the two-level driver (WG L1 over an RMW L2)
//	benchcore -out /tmp/b.json  append elsewhere
//	benchcore -cpuprofile p.out profile the whole run
//
// Exit status: 0 appended, 1 harness or divergence error.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"

	"cache8t/internal/core"
	"cache8t/internal/prof"
	"cache8t/internal/regress"
	"cache8t/internal/report"
)

// parseScale splits a comma-separated shard-count list ("1,2,4,8").
func parseScale(s string) ([]int, error) {
	var counts []int
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		n, err := strconv.Atoi(f)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad shard count %q in -scale (want positive integers)", f)
		}
		counts = append(counts, n)
	}
	if len(counts) == 0 {
		return nil, fmt.Errorf("-scale is empty")
	}
	return counts, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchcore: ")
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// run holds the body so its deferred profile stop runs on every exit,
// errors and interrupts included.
func run() error {
	def := regress.DefaultOptions()
	n := flag.Int("n", 1_000_000, "accesses to replay per mode")
	seed := flag.Uint64("seed", def.Seed, "workload seed")
	scale := flag.String("scale", "", "comma-separated shard counts to time the set-sharded driver at, on -controller (e.g. 1,2,4,8)")
	scaleKind := flag.String("controller", "rmw", "controller -scale times (core.ParseKind names; with -scale only)")
	hierMode := flag.Bool("hier", false, "time the two-level hierarchy driver instead (WG L1 over an RMW L2)")
	out := flag.String("out", "BENCH_core.json", "throughput trajectory file to append to")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	showVersion := flag.Bool("version", false, "print version (git SHA + artifact schema) and exit")
	flag.Parse()
	if *showVersion {
		fmt.Println(report.Version("benchcore"))
		return nil
	}
	if *hierMode && *scale != "" {
		return errors.New("-hier and -scale do not combine: the two-level driver does not shard")
	}
	kind, err := core.ParseKind(*scaleKind)
	if err != nil {
		return err
	}
	var counts []int
	if *scale != "" {
		if counts, err = parseScale(*scale); err != nil {
			return err
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	stopCPU, err := prof.StartCPU(*cpuprofile)
	if err != nil {
		return err
	}
	defer stopCPU()

	opts := def
	opts.N, opts.Seed, opts.Context = *n, *seed, ctx
	var entry regress.ThroughputEntry
	switch {
	case *hierMode:
		entry, err = regress.HierBench(opts)
	case counts != nil:
		entry, err = regress.ShardScale(opts, kind, counts)
	default:
		entry, err = regress.CoreBench(opts)
	}
	if err != nil {
		return err
	}
	if err := regress.AppendLedger(*out, entry); err != nil {
		return err
	}
	controller := entry.Controller
	if entry.L2Controller != "" {
		controller += "→" + entry.L2Controller
	}
	fmt.Printf("benchcore: appended %s entry to %s (%s/%s, n=%d, %d rounds, gomaxprocs=%d, num_cpu=%d, identity %.12s)\n",
		entry.Bench, *out, entry.Workload, controller, entry.N, entry.Rounds, entry.GoMaxProcs, entry.NumCPU, entry.Identity)
	for _, m := range entry.Modes {
		fmt.Printf("benchcore:   %-12s %8.1f ms [%.1f, %.1f]  %5.2f Macc/s  %.3fx over streamed [%.3f, %.3f]\n",
			m.Mode, m.MedianMS, m.Q1MS, m.Q3MS, m.AccPS/1e6, m.Ratio, m.RatioLow, m.RatioHigh)
	}
	return prof.WriteHeap(*memprofile)
}
