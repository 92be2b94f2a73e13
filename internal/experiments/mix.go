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

	// The q=10 mix also runs a depth-4 Set-Buffer, on the same walk.
	deep := cfg.Opts
	deep.BufferDepth = 4
	wgrb := []core.Scheme{{Kind: core.WGRB, Opts: cfg.Opts}, {Kind: core.WGRB, Opts: deep}}
	reduce := func(accs []trace.Access, schemes ...core.Scheme) ([]float64, error) {
		return reductionsVsRMW(cfg, cfg.Cache, func() (trace.Stream, error) { return trace.FromSlice(accs), nil }, schemes...)
	}

	for _, pair := range pairs {
		var soloSum float64
		for _, name := range pair {
			gen, err := workload.Stream(name, cfg.Seed)
			if err != nil {
				return nil, err
			}
			accs := trace.Collect(trace.NewLimit(gen, uint64(cfg.AccessesPerBench)), 0)
			reds, err := reduce(accs, wgrb[0])
			if err != nil {
				return nil, err
			}
			soloSum += reds[0]
		}
		row := []any{pair[0] + "+" + pair[1], stats.Pct(soloSum / 2)}
		var deepRed float64
		for i, q := range quanta {
			m, err := workload.NewMixByNames(pair[:], cfg.Seed, q)
			if err != nil {
				return nil, err
			}
			accs := trace.Collect(trace.NewLimit(m, uint64(cfg.AccessesPerBench)), 0)
			run := wgrb[:1]
			if i == 0 {
				run = wgrb
			}
			reds, err := reduce(accs, run...)
			if err != nil {
				return nil, err
			}
			row = append(row, stats.Pct(reds[0]))
			if i == 0 {
				deepRed = reds[1]
			}
		}
		row = append(row, stats.Pct(deepRed))
		t.AddRowf(row...)
	}
	return t, nil
}
