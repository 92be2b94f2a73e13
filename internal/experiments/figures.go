package experiments

import (
	"cache8t/internal/cache"
	"cache8t/internal/core"
	"cache8t/internal/stats"
	"cache8t/internal/trace"
	"cache8t/internal/workload"
)

// analyses returns every benchmark's stream analysis on cfg's cache shape,
// in profile order: the input of Figures 3-5.
func analyses(cfg Config) ([]core.StreamAnalysis, error) {
	g := cfg.geometry()
	return benchMap(cfg, func(_ workload.Profile, src *workload.Source) (core.StreamAnalysis, error) {
		s, err := src.Stream()
		if err != nil {
			return core.StreamAnalysis{}, err
		}
		return core.Analyze(s, g, 0), nil
	})
}

// Fig3 reproduces Figure 3: read and write frequency as a fraction of
// executed instructions. Paper anchors: 26% reads / 14% writes on average;
// bwaves above 22% writes.
func Fig3(cfg Config) (*stats.Table, error) {
	t := stats.NewTable("Figure 3 — memory access frequency (fraction of instructions)",
		"benchmark", "reads/instr", "writes/instr")
	ans, err := analyses(cfg)
	if err != nil {
		return nil, err
	}
	var reads, writes []float64
	for i, prof := range workload.Profiles() {
		an := ans[i]
		t.AddRowf(prof.Name, stats.Pct(an.Stats.ReadFrac()), stats.Pct(an.Stats.WriteFrac()))
		reads = append(reads, an.Stats.ReadFrac())
		writes = append(writes, an.Stats.WriteFrac())
	}
	t.AddRowf("MEAN (measured)", stats.Pct(stats.Mean(reads)), stats.Pct(stats.Mean(writes)))
	t.AddRow("MEAN (paper)", "26.0%", "14.0%")
	return t, nil
}

// Fig4 reproduces Figure 4: the breakdown of consecutive accesses to the
// same cache set into RR/RW/WR/WW. Paper anchors: ~27% of consecutive
// accesses land in the same set on average; RR and WW dominate; bwaves has
// the largest WW share (~24%).
func Fig4(cfg Config) (*stats.Table, error) {
	t := stats.NewTable("Figure 4 — consecutive same-set access scenarios (share of all pairs)",
		"benchmark", "RR", "RW", "WR", "WW", "same-set total")
	ans, err := analyses(cfg)
	if err != nil {
		return nil, err
	}
	var rr, rw, wr, ww, ss []float64
	for i, prof := range workload.Profiles() {
		an := ans[i]
		t.AddRowf(prof.Name, stats.Pct(an.RR()), stats.Pct(an.RW()),
			stats.Pct(an.WR()), stats.Pct(an.WW()), stats.Pct(an.SameSetFrac()))
		rr = append(rr, an.RR())
		rw = append(rw, an.RW())
		wr = append(wr, an.WR())
		ww = append(ww, an.WW())
		ss = append(ss, an.SameSetFrac())
	}
	t.AddRowf("MEAN (measured)", stats.Pct(stats.Mean(rr)), stats.Pct(stats.Mean(rw)),
		stats.Pct(stats.Mean(wr)), stats.Pct(stats.Mean(ww)), stats.Pct(stats.Mean(ss)))
	t.AddRow("MEAN (paper)", "", "", "", "", "~27%")
	return t, nil
}

// Fig5 reproduces Figure 5: silent write frequency. Paper anchors: >42% of
// writes silent on average; bwaves ~77%.
func Fig5(cfg Config) (*stats.Table, error) {
	t := stats.NewTable("Figure 5 — silent write frequency (share of writes)",
		"benchmark", "silent writes")
	ans, err := analyses(cfg)
	if err != nil {
		return nil, err
	}
	var silent []float64
	for i, prof := range workload.Profiles() {
		t.AddRowf(prof.Name, stats.Pct(ans[i].SilentFrac()))
		silent = append(silent, ans[i].SilentFrac())
	}
	t.AddRowf("MEAN (measured)", stats.Pct(stats.Mean(silent)))
	t.AddRow("MEAN (paper)", ">42%")
	return t, nil
}

// InflationRow is one benchmark's RMW-vs-conventional array traffic:
// absolute totals plus the relative increase, the §1 headline quantity.
type InflationRow struct {
	Conventional uint64
	RMW          uint64
	Increase     float64
}

// InflationMatrix runs every benchmark through the Conventional and RMW
// controllers on the baseline shape and returns rows in profile order. It is
// the machine-readable core of RMWInflation, shared with the regression
// harness so goldens pin exactly what the table prints.
func InflationMatrix(cfg Config) ([]InflationRow, error) {
	return benchMap(cfg, func(prof workload.Profile, src *workload.Source) (InflationRow, error) {
		res, err := runSchemes(cfg, cfg.Cache, src.Stream, core.Schemes(cfg.Opts, core.Conventional, core.RMW)...)
		if err != nil {
			return InflationRow{}, err
		}
		conv, rmw := res[0].ArrayAccesses(), res[1].ArrayAccesses()
		return InflationRow{
			Conventional: conv,
			RMW:          rmw,
			Increase:     float64(rmw)/float64(conv) - 1,
		}, nil
	})
}

// RMWInflation reproduces the §1 claim: "RMW increases cache access
// frequency by more than 32% on average (max 47%)" relative to a
// conventional write path.
func RMWInflation(cfg Config) (*stats.Table, error) {
	t := stats.NewTable("RMW cache-access inflation vs conventional single-access writes",
		"benchmark", "conventional", "RMW", "increase")
	rows, err := InflationMatrix(cfg)
	if err != nil {
		return nil, err
	}
	var incs []float64
	for i, prof := range workload.Profiles() {
		r := rows[i]
		t.AddRowf(prof.Name, r.Conventional, r.RMW, stats.Pct(r.Increase))
		incs = append(incs, r.Increase)
	}
	t.AddRowf("MEAN (measured)", "", "", stats.Pct(stats.Mean(incs)))
	t.AddRowf("MAX (measured)", "", "", stats.Pct(stats.Max(incs)))
	t.AddRow("MEAN (paper)", "", "", ">32%")
	t.AddRow("MAX (paper)", "", "", "47%")
	return t, nil
}

// Fig8 reproduces the §4.3 worked example (see DESIGN.md E11 for the stream
// reconstruction): array-access totals per controller for the literal
// request stream Ra Wb Wb Rb Rb Wb Wa Rb Ra with a silent Wa.
func Fig8(cfg Config) (*stats.Table, error) {
	t := stats.NewTable("Figure 8 — worked example: array accesses per scheme",
		"scheme", "array reads", "array writes", "total")
	stream := Fig8Stream(cfg.geometry())
	res, err := runSchemes(cfg, cfg.Cache, func() (trace.Stream, error) { return trace.FromSlice(stream), nil },
		core.Schemes(cfg.Opts, core.Conventional, core.RMW, core.WG, core.WGRB)...)
	if err != nil {
		return nil, err
	}
	for _, r := range res {
		t.AddRowf(r.Controller.String(), r.ArrayReads, r.ArrayWrites, r.ArrayAccesses())
	}
	return t, nil
}

// Fig8Stream is the reconstructed §4.3 example stream over two sets a and b.
func Fig8Stream(g cache.Geometry) []trace.Access {
	addrA := uint64(0)
	addrB := uint64(g.BlockBytes)
	r := func(addr uint64) trace.Access {
		return trace.Access{Kind: trace.Read, Addr: addr, Size: 4}
	}
	w := func(addr, val uint64) trace.Access {
		return trace.Access{Kind: trace.Write, Addr: addr, Size: 4, Data: val}
	}
	return []trace.Access{
		r(addrA), w(addrB, 1), w(addrB, 2), r(addrB), r(addrB),
		w(addrB, 3), w(addrA, 0), r(addrB), r(addrA),
	}
}

// ReductionPair is one benchmark's WG and WG+RB access-frequency reductions
// versus the RMW baseline — the quantity Figures 9-11 chart.
type ReductionPair struct{ WG, WGRB float64 }

// ReductionMatrix runs every benchmark through RMW/WG/WGRB over the given
// cache shape and returns the reduction pairs in profile order, fanned out
// across the engine. Figures 9-11 and cmd/regress both build on it, so the
// golden artifacts pin exactly the numbers the tables print.
func ReductionMatrix(cfg Config, shape cache.Config) ([]ReductionPair, error) {
	return benchMap(cfg, func(prof workload.Profile, src *workload.Source) (ReductionPair, error) {
		wg, rb, err := reductions(cfg, shape, src)
		return ReductionPair{WG: wg, WGRB: rb}, err
	})
}

// reductionFigure builds a Figure 9/10-style table for one cache shape. The
// 25 benchmarks fan out across the engine; rows land in profile order.
func reductionFigure(cfg Config, title string, shape cache.Config, paperWG, paperRB string) (*stats.Table, error) {
	pairs, err := ReductionMatrix(cfg, shape)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable(title, "benchmark", "WG", "WG+RB")
	var wgs, rbs []float64
	for i, prof := range workload.Profiles() {
		t.AddRowf(prof.Name, stats.Pct(pairs[i].WG), stats.Pct(pairs[i].WGRB))
		wgs = append(wgs, pairs[i].WG)
		rbs = append(rbs, pairs[i].WGRB)
	}
	t.AddRowf("MEAN (measured)", stats.Pct(stats.Mean(wgs)), stats.Pct(stats.Mean(rbs)))
	t.AddRow("MEAN (paper)", paperWG, paperRB)
	return t, nil
}

// Fig9 reproduces Figure 9: cache access frequency reduction on the
// baseline 64 KB / 4-way / 32 B cache. Paper: WG 27%, WG+RB 33% on average;
// bwaves up to 47% under WG.
func Fig9(cfg Config) (*stats.Table, error) {
	return reductionFigure(cfg,
		"Figure 9 — access-frequency reduction vs RMW (64KB/4w/32B)",
		cfg.Cache, "27%", "33%")
}

// Fig10 reproduces Figure 10: the same reduction with a 32 KB cache and
// 64 B blocks. Paper: WG 29%, WG+RB 37% — larger blocks raise Set-Buffer
// hit rates.
func Fig10(cfg Config) (*stats.Table, error) {
	shape := cfg.Cache
	shape.SizeBytes = 32 * 1024
	shape.BlockBytes = 64
	return reductionFigure(cfg,
		"Figure 10 — access-frequency reduction vs RMW (32KB/4w/64B)",
		shape, "29%", "37%")
}

// Fig11 reproduces Figure 11: reduction at 32 KB and 128 KB capacities with
// 32 B blocks. Paper: WG 26.9%/26.6% and WG+RB 32.6%/32.1% — essentially
// insensitive to capacity.
func Fig11(cfg Config) (*stats.Table, error) {
	t := stats.NewTable("Figure 11 — access-frequency reduction vs cache size (4w/32B)",
		"benchmark", "WG 32KB", "WG+RB 32KB", "WG 128KB", "WG+RB 128KB")
	small := cfg.Cache
	small.SizeBytes = 32 * 1024
	big := cfg.Cache
	big.SizeBytes = 128 * 1024
	pairs, err := benchMap(cfg, func(prof workload.Profile, src *workload.Source) ([2]ReductionPair, error) {
		ws, rs, err := reductions(cfg, small, src)
		if err != nil {
			return [2]ReductionPair{}, err
		}
		wb, rb, err := reductions(cfg, big, src)
		if err != nil {
			return [2]ReductionPair{}, err
		}
		return [2]ReductionPair{{ws, rs}, {wb, rb}}, nil
	})
	if err != nil {
		return nil, err
	}
	var wgS, rbS, wgB, rbB []float64
	for i, prof := range workload.Profiles() {
		sm, bg := pairs[i][0], pairs[i][1]
		t.AddRowf(prof.Name, stats.Pct(sm.WG), stats.Pct(sm.WGRB), stats.Pct(bg.WG), stats.Pct(bg.WGRB))
		wgS = append(wgS, sm.WG)
		rbS = append(rbS, sm.WGRB)
		wgB = append(wgB, bg.WG)
		rbB = append(rbB, bg.WGRB)
	}
	t.AddRowf("MEAN (measured)", stats.Pct(stats.Mean(wgS)), stats.Pct(stats.Mean(rbS)),
		stats.Pct(stats.Mean(wgB)), stats.Pct(stats.Mean(rbB)))
	t.AddRow("MEAN (paper)", "26.9%", "32.6%", "26.6%", "32.1%")
	return t, nil
}
