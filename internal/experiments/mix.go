package experiments

import (
	"fmt"

	"cache8t/internal/core"
	"cache8t/internal/stats"
	"cache8t/internal/trace"
	"cache8t/internal/workload"
)

// Mix stresses the single-entry Set-Buffer with multiprogramming (an
// extension beyond the paper, which evaluates solo benchmarks): pairs of
// benchmarks share the cache in round-robin quanta, and the table reports
// WG+RB reduction for the solo mean, the mix at several context-switch
// quanta, and the mix with a 4-entry Set-Buffer (ablation A2's cure).
func Mix(cfg Config) (*stats.Table, error) {
	pairs := [][2]string{
		{"bwaves", "mcf"},
		{"lbm", "gcc"},
		{"wrf", "gamess"},
		{"hmmer", "astar"},
	}
	quanta := []int{10, 100, 1000}
	cols := []string{"pair", "solo mean"}
	for _, q := range quanta {
		cols = append(cols, fmt.Sprintf("mix q=%d", q))
	}
	cols = append(cols, "mix q=10, depth 4")
	t := stats.NewTable("Multiprogrammed mixes — WG+RB reduction vs RMW", cols...)

	reduction := func(accs []trace.Access, opts core.Options) (float64, error) {
		res, err := core.RunEachStream(cfg.ctx(), []core.Kind{core.RMW, core.WGRB}, cfg.Cache, opts,
			func() (trace.Stream, error) { return trace.FromSlice(accs), nil }, 0, 0, 0)
		if err != nil {
			return 0, err
		}
		return stats.Reduction(res[1].ArrayAccesses(), res[0].ArrayAccesses()), nil
	}

	for _, pair := range pairs {
		var soloSum float64
		for _, name := range pair {
			gen, err := workload.Stream(name, cfg.Seed)
			if err != nil {
				return nil, err
			}
			accs := trace.Collect(trace.NewLimit(gen, uint64(cfg.AccessesPerBench)), 0)
			red, err := reduction(accs, cfg.Opts)
			if err != nil {
				return nil, err
			}
			soloSum += red
		}
		row := []any{pair[0] + "+" + pair[1], stats.Pct(soloSum / 2)}
		var smallQ []trace.Access
		for _, q := range quanta {
			m, err := workload.NewMixByNames(pair[:], cfg.Seed, q)
			if err != nil {
				return nil, err
			}
			accs := trace.Collect(trace.NewLimit(m, uint64(cfg.AccessesPerBench)), 0)
			if q == quanta[0] {
				smallQ = accs
			}
			red, err := reduction(accs, cfg.Opts)
			if err != nil {
				return nil, err
			}
			row = append(row, stats.Pct(red))
		}
		deepOpts := cfg.Opts
		deepOpts.BufferDepth = 4
		deep, err := reduction(smallQ, deepOpts)
		if err != nil {
			return nil, err
		}
		row = append(row, stats.Pct(deep))
		t.AddRowf(row...)
	}
	return t, nil
}
