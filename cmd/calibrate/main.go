// Command calibrate prints the measured stream statistics and access
// reductions for every benchmark profile, side by side — the tool used to
// tune internal/workload's profile table against the paper's anchors. Each
// benchmark is an independent engine job, so the suite fans out across
// -workers while the rows still print in profile order.
//
// Usage:
//
//	calibrate [-n accesses] [-sens] [-workers N] [-timeout D]
//
// -sens additionally sweeps the Figure 10/11 cache shapes.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime"
	"time"

	"cache8t/internal/cache"
	"cache8t/internal/core"
	"cache8t/internal/engine"
	"cache8t/internal/report"
	"cache8t/internal/trace"
	"cache8t/internal/workload"
)

// row is one benchmark's calibration line: the stream analysis plus the two
// measured reductions.
type row struct {
	an           core.StreamAnalysis
	wgRed, rbRed float64
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("calibrate: ")
	n := flag.Int("n", 400000, "accesses per benchmark")
	sens := flag.Bool("sens", false, "also sweep Figure 10/11 cache shapes")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "parallel simulation workers (1 = serial)")
	timeout := flag.Duration("timeout", 0, "per-benchmark timeout (0 = none)")
	reportPath := flag.String("report", "", "write the calibration artifact (canonical JSON) to this path")
	showVersion := flag.Bool("version", false, "print version (git SHA + artifact schema) and exit")
	flag.Parse()
	if *showVersion {
		fmt.Println(report.Version("calibrate"))
		return
	}
	start := time.Now()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	ecfg := engine.Config{Workers: *workers, JobTimeout: *timeout}

	cfg := cache.DefaultConfig()
	g := cache.MustGeometry(cfg.SizeBytes, cfg.Ways, cfg.BlockBytes)
	profiles := workload.Profiles()

	jobs := make([]engine.Job[row], len(profiles))
	for i, p := range profiles {
		p := p
		jobs[i] = engine.Job[row]{
			Label: p.Name,
			Fn: func(jctx context.Context) (row, error) {
				accs, err := workload.Take(p, 1, *n)
				if err != nil {
					return row{}, err
				}
				an := core.Analyze(trace.FromSlice(accs), g, 0)
				res, err := core.RunSchemes(jctx, core.Schemes(core.Options{}, core.RMW, core.WG, core.WGRB), cfg,
					func() (trace.Stream, error) { return trace.FromSlice(accs), nil }, 0, 0, 0)
				if err != nil {
					return row{}, err
				}
				rmw, wg, rb := res[0].ArrayAccesses(), res[1].ArrayAccesses(), res[2].ArrayAccesses()
				return row{
					an:    an,
					wgRed: 1 - float64(wg)/float64(rmw),
					rbRed: 1 - float64(rb)/float64(rmw),
				}, nil
			},
		}
	}
	rows, err := engine.Map(ctx, ecfg, jobs)
	if err != nil {
		log.Fatal(err)
	}

	var sumR, sumW, sumSS, sumWW, sumRR, sumSil, sumWG, sumRB float64
	fmt.Printf("%-11s %6s %6s | %6s %6s %6s %6s %6s | %6s | %6s %6s\n",
		"bench", "rd/ins", "wr/ins", "same", "RR", "RW", "WR", "WW", "silent", "WG", "WG+RB")
	for i, p := range profiles {
		an, wgRed, rbRed := rows[i].an, rows[i].wgRed, rows[i].rbRed
		fmt.Printf("%-11s %6.3f %6.3f | %6.3f %6.3f %6.3f %6.3f %6.3f | %6.3f | %6.3f %6.3f\n",
			p.Name, an.Stats.ReadFrac(), an.Stats.WriteFrac(), an.SameSetFrac(),
			an.RR(), an.RW(), an.WR(), an.WW(), an.SilentFrac(), wgRed, rbRed)
		sumR += an.Stats.ReadFrac()
		sumW += an.Stats.WriteFrac()
		sumSS += an.SameSetFrac()
		sumWW += an.WW()
		sumRR += an.RR()
		sumSil += an.SilentFrac()
		sumWG += wgRed
		sumRB += rbRed
	}
	k := float64(len(profiles))
	fmt.Printf("%-11s %6.3f %6.3f | %6.3f %6.3f %19s %6.3f | %6.3f | %6.3f %6.3f\n",
		"MEAN", sumR/k, sumW/k, sumSS/k, sumRR/k, "", sumWW/k, sumSil/k, sumWG/k, sumRB/k)

	if *sens {
		if err := sensitivity(ctx, ecfg, *n); err != nil {
			log.Fatal(err)
		}
	}

	if *reportPath != "" {
		art := report.New("calibrate", 1)
		art.SetConfig("n", *n)
		art.SetConfig("cache_size_bytes", cfg.SizeBytes)
		art.SetConfig("cache_ways", cfg.Ways)
		art.SetConfig("cache_block_bytes", cfg.BlockBytes)
		for i, p := range profiles {
			an := rows[i].an
			art.SetMetric(p.Name+".read_frac", an.Stats.ReadFrac())
			art.SetMetric(p.Name+".write_frac", an.Stats.WriteFrac())
			art.SetMetric(p.Name+".same_set_frac", an.SameSetFrac())
			art.SetMetric(p.Name+".silent_frac", an.SilentFrac())
			art.SetMetric(p.Name+".wg_reduction", rows[i].wgRed)
			art.SetMetric(p.Name+".wgrb_reduction", rows[i].rbRed)
		}
		art.SetMetric("mean.read_frac", sumR/k)
		art.SetMetric("mean.write_frac", sumW/k)
		art.SetMetric("mean.same_set_frac", sumSS/k)
		art.SetMetric("mean.silent_frac", sumSil/k)
		art.SetMetric("mean.wg_reduction", sumWG/k)
		art.SetMetric("mean.wgrb_reduction", sumRB/k)
		art.WallMS = float64(time.Since(start).Microseconds()) / 1e3
		if err := report.WriteFile(*reportPath, art); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("report written to %s\n", *reportPath)
	}
}

// sensitivity sweeps the Figure 10/11 cache shapes and prints mean
// reductions for each, fanning (shape, benchmark) jobs across the engine.
func sensitivity(ctx context.Context, ecfg engine.Config, n int) error {
	shapes := []struct {
		name string
		cfg  cache.Config
	}{
		{"base 64K/4w/32B", cache.Config{SizeBytes: 64 * 1024, Ways: 4, BlockBytes: 32, Policy: cache.LRU}},
		{"fig10 32K/4w/64B", cache.Config{SizeBytes: 32 * 1024, Ways: 4, BlockBytes: 64, Policy: cache.LRU}},
		{"fig11 32K/4w/32B", cache.Config{SizeBytes: 32 * 1024, Ways: 4, BlockBytes: 32, Policy: cache.LRU}},
		{"fig11 128K/4w/32B", cache.Config{SizeBytes: 128 * 1024, Ways: 4, BlockBytes: 32, Policy: cache.LRU}},
	}
	type red struct{ wg, rb float64 }
	profiles := workload.Profiles()
	jobs := make([]engine.Job[red], 0, len(shapes)*len(profiles))
	for _, s := range shapes {
		s := s
		for _, p := range profiles {
			p := p
			jobs = append(jobs, engine.Job[red]{
				Label: s.name + "/" + p.Name,
				Fn: func(jctx context.Context) (red, error) {
					accs, err := workload.Take(p, 1, n)
					if err != nil {
						return red{}, err
					}
					res, err := core.RunSchemes(jctx, core.Schemes(core.Options{}, core.RMW, core.WG, core.WGRB), s.cfg,
						func() (trace.Stream, error) { return trace.FromSlice(accs), nil }, 0, 0, 0)
					if err != nil {
						return red{}, err
					}
					rmw, wg, rb := res[0].ArrayAccesses(), res[1].ArrayAccesses(), res[2].ArrayAccesses()
					return red{1 - float64(wg)/float64(rmw), 1 - float64(rb)/float64(rmw)}, nil
				},
			})
		}
	}
	reds, err := engine.Map(ctx, ecfg, jobs)
	if err != nil {
		return err
	}
	k := float64(len(profiles))
	for si, s := range shapes {
		var sumWG, sumRB float64
		for pi := range profiles {
			r := reds[si*len(profiles)+pi]
			sumWG += r.wg
			sumRB += r.rb
		}
		fmt.Printf("%-18s WG=%.3f WG+RB=%.3f\n", s.name, sumWG/k, sumRB/k)
	}
	return nil
}
