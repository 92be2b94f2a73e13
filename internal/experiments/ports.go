package experiments

import (
	"fmt"

	"cache8t/internal/core"
	"cache8t/internal/stats"
	"cache8t/internal/timing"
	"cache8t/internal/workload"
)

// Ports cross-validates the §5.5 performance story with the cycle-accurate
// port simulator: per controller, the mean simulated CPI next to the
// analytic model's CPI, plus simulated port-conflict cycles per
// kilo-instruction. The two models were built independently (closed-form
// expectation vs discrete replay), so their agreement is a check on both.
func Ports(cfg Config) (*stats.Table, error) {
	t := stats.NewTable("E9b — cycle-accurate port simulation vs analytic model (means)",
		"scheme", "CPI (simulated)", "CPI (analytic)", "conflict cycles/kilo-instr", "avg read latency (sim)")
	kinds := []core.Kind{core.RMW, core.LocalRMW, core.WG, core.WGRB}
	params := timing.DefaultParams()
	type agg struct{ sim, ana, conf, lat float64 }
	// The port simulator replays each scheme's per-access log, which only
	// RunLogged keeps, so every kind walks on its own.
	rows, err := benchMap(cfg, func(_ workload.Profile, src *workload.Source) ([]agg, error) {
		out := make([]agg, len(kinds))
		for i, k := range kinds {
			stream, err := src.Stream()
			if err != nil {
				return nil, err
			}
			res, log, err := core.RunLogged(cfg.ctx(), k, cfg.Cache, cfg.Opts, stream, 0)
			if err != nil {
				return nil, err
			}
			sim, err := timing.SimulateBanked(log, params, params.Subarrays, res.LocalWriteback)
			if err != nil {
				return nil, err
			}
			ana, err := timing.Evaluate(res, params)
			if err != nil {
				return nil, err
			}
			out[i] = agg{sim: sim.CPI(), ana: ana.CPI(), lat: sim.AvgReadLatency}
			if sim.Instructions > 0 {
				out[i].conf = 1000 * float64(sim.PortConflictCycles) / float64(sim.Instructions)
			}
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	sums := make([]agg, len(kinds))
	for _, row := range rows {
		for i, a := range row {
			sums[i].sim += a.sim
			sums[i].ana += a.ana
			sums[i].conf += a.conf
			sums[i].lat += a.lat
		}
	}
	n := len(rows)
	for i, k := range kinds {
		s := sums[i]
		t.AddRowf(k.String(),
			fmt.Sprintf("%.4f", s.sim/float64(n)),
			fmt.Sprintf("%.4f", s.ana/float64(n)),
			fmt.Sprintf("%.2f", s.conf/float64(n)),
			fmt.Sprintf("%.3f", s.lat/float64(n)))
	}
	return t, nil
}

// Groups measures the write-group size distribution WG actually achieves —
// the direct quantification of "grouping write accesses ... during short
// intervals" (§4.1). Columns are the share of groups at each size, plus the
// mean buffered writes per group.
func Groups(cfg Config) (*stats.Table, error) {
	t := stats.NewTable("Write-group size distribution under WG (per benchmark)",
		"benchmark", "1", "2", "3-4", "5-8", "9+", "mean writes/group")
	counters, err := benchMap(cfg, func(_ workload.Profile, src *workload.Source) (core.Counters, error) {
		res, err := runSchemes(cfg, cfg.Cache, src.Stream, core.Scheme{Kind: core.WG, Opts: cfg.Opts})
		if err != nil {
			return core.Counters{}, err
		}
		return res[0].Counters, nil
	})
	if err != nil {
		return nil, err
	}
	labels := 5
	var meanSum float64
	var totals [5]uint64
	for i, prof := range workload.Profiles() {
		c := counters[i]
		var groups uint64
		for _, g := range c.GroupSizes {
			groups += g
		}
		row := []any{prof.Name}
		for j := 0; j < labels; j++ {
			totals[j] += c.GroupSizes[j]
			row = append(row, stats.Pct(stats.Ratio(c.GroupSizes[j], groups)))
		}
		mean := c.MeanGroupSize()
		meanSum += mean
		row = append(row, fmt.Sprintf("%.2f", mean))
		t.AddRowf(row...)
	}
	var grand uint64
	for _, v := range totals {
		grand += v
	}
	row := []any{"MEAN"}
	for i := 0; i < labels; i++ {
		row = append(row, stats.Pct(stats.Ratio(totals[i], grand)))
	}
	row = append(row, fmt.Sprintf("%.2f", meanSum/float64(len(counters))))
	t.AddRowf(row...)
	return t, nil
}
