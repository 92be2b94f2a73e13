package experiments

import (
	"cache8t/internal/core"
	"cache8t/internal/stats"
	"cache8t/internal/workload"
)

// Fills answers the natural reviewer question about the paper's counting
// convention: its Pin tool counts request traffic only, ignoring the array
// operations that miss handling performs (line fills are partial-row writes
// — themselves RMWs on an interleaved 8T array — and dirty evictions read
// the row out). This experiment re-runs Figure 9 with miss traffic counted
// and shows the reductions shrink but survive.
func Fills(cfg Config) (*stats.Table, error) {
	t := stats.NewTable("Counting-convention sensitivity: reductions with miss traffic included",
		"counting", "WG", "WG+RB")
	// Both conventions ride on one walk: RMW, WG and WG+RB without fill
	// traffic, then the same three with it.
	withFills := cfg.Opts
	withFills.CountFillTraffic = true
	kinds := []core.Kind{core.RMW, core.WG, core.WGRB}
	schemes := append(core.Schemes(cfg.Opts, kinds...), core.Schemes(withFills, kinds...)...)
	reds, err := benchMap(cfg, func(_ workload.Profile, src *workload.Source) ([2][2]float64, error) {
		res, err := runSchemes(cfg, cfg.Cache, src.Stream, schemes...)
		if err != nil {
			return [2][2]float64{}, err
		}
		var out [2][2]float64
		for c := range out {
			base := res[3*c].ArrayAccesses()
			out[c] = [2]float64{stats.Reduction(res[3*c+1].ArrayAccesses(), base), stats.Reduction(res[3*c+2].ArrayAccesses(), base)}
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	for c, name := range []string{"requests only (paper)", "requests + fills/evictions"} {
		var wgSum, rbSum float64
		for _, r := range reds {
			wgSum += r[c][0]
			rbSum += r[c][1]
		}
		t.AddRowf(name, stats.Pct(wgSum/float64(len(reds))), stats.Pct(rbSum/float64(len(reds))))
	}
	return t, nil
}
