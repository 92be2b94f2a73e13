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
	sums := map[core.Kind]*agg{}
	for _, k := range kinds {
		sums[k] = &agg{}
	}
	n := 0
	err := forEachBench(cfg, func(prof workload.Profile, src *workload.Source) error {
		n++
		for _, k := range kinds {
			stream, err := src.Stream()
			if err != nil {
				return err
			}
			res, log, err := core.RunLogged(cfg.ctx(), k, cfg.Cache, cfg.Opts, stream, 0)
			if err != nil {
				return err
			}
			sim, err := timing.SimulateBanked(log, params, params.Subarrays, res.LocalWriteback)
			if err != nil {
				return err
			}
			ana, err := timing.Evaluate(res, params)
			if err != nil {
				return err
			}
			s := sums[k]
			s.sim += sim.CPI()
			s.ana += ana.CPI()
			if sim.Instructions > 0 {
				s.conf += 1000 * float64(sim.PortConflictCycles) / float64(sim.Instructions)
			}
			s.lat += sim.AvgReadLatency
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, k := range kinds {
		s := sums[k]
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
	labels := 5
	var meanSum float64
	var totals [5]uint64
	n := 0
	err := forEachBench(cfg, func(prof workload.Profile, src *workload.Source) error {
		n++
		res, err := runSource(cfg, core.WG, cfg.Cache, cfg.Opts, src)
		if err != nil {
			return err
		}
		var groups uint64
		for _, g := range res.Counters.GroupSizes {
			groups += g
		}
		row := []any{prof.Name}
		for i := 0; i < labels; i++ {
			totals[i] += res.Counters.GroupSizes[i]
			row = append(row, stats.Pct(stats.Ratio(res.Counters.GroupSizes[i], groups)))
		}
		mean := res.Counters.MeanGroupSize()
		meanSum += mean
		row = append(row, fmt.Sprintf("%.2f", mean))
		t.AddRowf(row...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	var grand uint64
	for _, v := range totals {
		grand += v
	}
	row := []any{"MEAN"}
	for i := 0; i < labels; i++ {
		row = append(row, stats.Pct(stats.Ratio(totals[i], grand)))
	}
	row = append(row, fmt.Sprintf("%.2f", meanSum/float64(n)))
	t.AddRowf(row...)
	return t, nil
}
