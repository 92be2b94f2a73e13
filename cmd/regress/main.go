// Command regress is the golden-result regression harness: it re-runs the
// paper's headline experiment matrix (Figure 8 worked example, RMW
// inflation, Figures 9/10/11 reductions, the two-level hierarchy) and diffs
// the resulting artifacts against the checked-in golden/*.json baselines
// with per-metric tolerance bands. Any drift prints a per-metric diff table
// and exits non-zero, which is what lets CI promote "tests pass" to "the
// paper's numbers still hold".
//
// Usage:
//
//	regress                     diff all checks against golden/
//	regress fig9 fig10          only those checks
//	regress -update             regenerate the goldens intentionally
//	regress -full               show passing metrics too
//	regress -stream             rebuild from streamed traces (same numbers,
//	                            constant memory per benchmark)
//	regress -shards 4           set-sharded parallel simulation (same numbers;
//	                            CI proves sharded == serial goldens)
//
// Every run simulates every check it diffs: no result cache stands between
// the code and the goldens, so no warm directory can turn the gate off.
//
// Exit status: 0 clean, 1 drift, 2 harness error (missing golden, bad
// flags, simulation failure).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"

	"cache8t/internal/regress"
	"cache8t/internal/report"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("regress: ")

	def := regress.DefaultOptions()
	golden := flag.String("golden", def.GoldenDir, "golden baseline directory")
	n := flag.Int("n", def.N, "accesses per benchmark (goldens are pinned at this N)")
	seed := flag.Uint64("seed", def.Seed, "workload master seed")
	workers := flag.Int("workers", 0, "parallel simulation workers (0 = one per CPU)")
	update := flag.Bool("update", false, "regenerate goldens instead of diffing")
	full := flag.Bool("full", false, "render passing metrics in diff tables too")
	stream := flag.Bool("stream", false, "rebuild artifacts from streamed traces (constant memory; same numbers)")
	shards := flag.Int("shards", 0, "set-shard every simulation across this many goroutines (same numbers; Random-policy caches run serially)")
	showVersion := flag.Bool("version", false, "print version (git SHA + artifact schema) and exit")
	flag.Parse()
	if *showVersion {
		fmt.Println(report.Version("regress"))
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	opts := regress.Options{
		GoldenDir: *golden,
		N:         *n,
		Seed:      *seed,
		Workers:   *workers,
		Update:    *update,
		Full:      *full,
		Stream:    *stream,
		Shards:    *shards,
		Context:   ctx,
		Out:       os.Stdout,
	}

	sum, err := regress.Run(opts, flag.Args()...)
	if err != nil {
		log.Print(err)
		os.Exit(2)
	}
	switch {
	case *update:
		fmt.Printf("regress: %d goldens regenerated in %s — review and commit them deliberately\n",
			len(sum.Updated), *golden)
	case sum.OK():
		fmt.Printf("regress: PASS — %d checks against %s\n", len(sum.Passed), *golden)
	default:
		fmt.Printf("regress: FAIL — drift in %v (%d/%d checks clean)\n",
			sum.Failed, len(sum.Passed), len(sum.Passed)+len(sum.Failed))
		os.Exit(1)
	}
}
