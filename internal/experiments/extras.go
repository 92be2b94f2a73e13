package experiments

import (
	"fmt"

	"cache8t/internal/core"
	"cache8t/internal/energy"
	"cache8t/internal/sram"
	"cache8t/internal/stats"
	"cache8t/internal/timing"
	"cache8t/internal/workload"
)

// Area reproduces §5.4: the Set-Buffer stores one cache set (128 B on the
// baseline, < 0.2% of the cache's storage) and the Tag-Buffer is under 150
// bits at a 48-bit physical address.
func Area(cfg Config) (*stats.Table, error) {
	g := cfg.geometry()
	const paBits = 48
	setBufBits := g.SetBytes() * 8
	tagBufBits := g.TagBufferBits(paBits)
	cacheBits := cfg.Cache.SizeBytes * 8
	t := stats.NewTable("§5.4 — storage and area overhead of WG/WG+RB ("+g.String()+", 48-bit PA)",
		"quantity", "value", "paper")
	t.AddRowf("Set-Buffer size", fmt.Sprintf("%d B", g.SetBytes()), "128 B (one set)")
	t.AddRowf("Set-Buffer / cache storage",
		stats.Pct(float64(setBufBits)/float64(cacheBits)), "< 0.2%")
	t.AddRowf("Tag-Buffer size", fmt.Sprintf("%d bits", tagBufBits), "< 150 bits")
	for _, node := range []int{65, 45, 32, 22} {
		rep, err := sram.ComputeArea(sram.EightT, node, cacheBits, setBufBits, tagBufBits)
		if err != nil {
			return nil, err
		}
		t.AddRowf(fmt.Sprintf("total added area @ %dnm (latch-sized)", node),
			stats.Pct(rep.TotalOverhead()), "not reported")
	}
	ratio45, err := sram.AreaRatio(45)
	if err != nil {
		return nil, err
	}
	ratio22, err := sram.AreaRatio(22)
	if err != nil {
		return nil, err
	}
	t.AddRowf("8T/6T cell area @45nm", fmt.Sprintf("%.2fx", ratio45), "compact beyond 45nm")
	t.AddRowf("8T/6T cell area @22nm", fmt.Sprintf("%.2fx", ratio22), "compact beyond 45nm")
	return t, nil
}

// priced is one scheme's Result under the timing and energy models at the
// nominal operating point.
type priced struct{ accPerReq, cpi, readLat, portUtil, nJ float64 }

// meanPriced runs kinds under cfg.Opts over one walk of every benchmark,
// prices each Result at 1.0V/2000MHz, and returns each kind's mean over
// benchmarks, summed in profile order.
func meanPriced(cfg Config, kinds []core.Kind) ([]priced, error) {
	point := sram.OperatingPoint{VoltageV: 1.0, FreqMHz: 2000}
	tp := timing.DefaultParams()
	rows, err := benchMap(cfg, func(_ workload.Profile, src *workload.Source) ([]priced, error) {
		res, err := runSchemes(cfg, cfg.Cache, src.Stream, core.Schemes(cfg.Opts, kinds...)...)
		if err != nil {
			return nil, err
		}
		out := make([]priced, len(res))
		for i, r := range res {
			trep, err := timing.Evaluate(r, tp)
			if err != nil {
				return nil, err
			}
			erep, err := energy.Evaluate(r, point, tp)
			if err != nil {
				return nil, err
			}
			out[i] = priced{r.AccessesPerRequest(), trep.CPI(), trep.AvgReadLatency,
				trep.ReadPortUtilization, energy.PerAccessJ(erep, r.Requests.Accesses()) * 1e9}
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	means := make([]priced, len(kinds))
	for _, row := range rows {
		for i, p := range row {
			m := &means[i]
			m.accPerReq += p.accPerReq
			m.cpi += p.cpi
			m.readLat += p.readLat
			m.portUtil += p.portUtil
			m.nJ += p.nJ
		}
	}
	n := float64(len(rows))
	for i := range means {
		m := &means[i]
		*m = priced{m.accPerReq / n, m.cpi / n, m.readLat / n, m.portUtil / n, m.nJ / n}
	}
	return means, nil
}

// PerfPower quantifies §5.5 with the timing and energy models: CPI, average
// read latency, read-port utilization, and energy per access for each
// controller, averaged across benchmarks at the nominal operating point.
func PerfPower(cfg Config) (*stats.Table, error) {
	t := stats.NewTable("§5.5 quantified — timing and energy (mean over benchmarks, 1.0V/2000MHz)",
		"scheme", "CPI", "avg read latency", "read-port util", "nJ/access")
	kinds := []core.Kind{core.Conventional, core.RMW, core.LocalRMW, core.WG, core.WGRB}
	means, err := meanPriced(cfg, kinds)
	if err != nil {
		return nil, err
	}
	for i, k := range kinds {
		m := means[i]
		t.AddRowf(k.String(),
			fmt.Sprintf("%.4f", m.cpi),
			fmt.Sprintf("%.3f", m.readLat),
			stats.Pct(m.portUtil),
			fmt.Sprintf("%.4f", m.nJ))
	}
	return t, nil
}

// AblationSilent isolates the Dirty-bit silent-write optimization (A1):
// WG with and without elision, mean reduction vs RMW, all three over one
// walk of each benchmark.
func AblationSilent(cfg Config) (*stats.Table, error) {
	t := stats.NewTable("A1 — contribution of silent-write elision to WG",
		"benchmark", "WG", "WG (no silent elision)", "delta")
	noSilent := cfg.Opts
	noSilent.DisableSilentElision = true
	reds, err := benchMap(cfg, func(_ workload.Profile, src *workload.Source) ([]float64, error) {
		return reductionsVsRMW(cfg, cfg.Cache, src.Stream,
			core.Scheme{Kind: core.WG, Opts: cfg.Opts}, core.Scheme{Kind: core.WG, Opts: noSilent})
	})
	if err != nil {
		return nil, err
	}
	var on, off []float64
	for i, prof := range workload.Profiles() {
		rOn, rOff := reds[i][0], reds[i][1]
		t.AddRowf(prof.Name, stats.Pct(rOn), stats.Pct(rOff), stats.Pct(rOn-rOff))
		on = append(on, rOn)
		off = append(off, rOff)
	}
	t.AddRowf("MEAN", stats.Pct(stats.Mean(on)), stats.Pct(stats.Mean(off)),
		stats.Pct(stats.Mean(on)-stats.Mean(off)))
	return t, nil
}

// AblationDepth sweeps the Set-Buffer entry count (A2): the paper's buffer
// is a single entry; deeper buffers group write streams that interleave
// across sets. Every depth rides on one walk of each benchmark.
func AblationDepth(cfg Config) (*stats.Table, error) {
	depths := []int{1, 2, 4, 8}
	cols := []string{"benchmark"}
	schemes := make([]core.Scheme, len(depths))
	for i, d := range depths {
		cols = append(cols, fmt.Sprintf("WG+RB depth %d", d))
		schemes[i] = core.Scheme{Kind: core.WGRB, Opts: cfg.Opts}
		schemes[i].Opts.BufferDepth = d
	}
	t := stats.NewTable("A2 — Set-Buffer depth sweep (reduction vs RMW)", cols...)
	reds, err := benchMap(cfg, func(_ workload.Profile, src *workload.Source) ([]float64, error) {
		return reductionsVsRMW(cfg, cfg.Cache, src.Stream, schemes...)
	})
	if err != nil {
		return nil, err
	}
	sums := make([]float64, len(depths))
	for i, prof := range workload.Profiles() {
		row := []any{prof.Name}
		for j, red := range reds[i] {
			row = append(row, stats.Pct(red))
			sums[j] += red
		}
		t.AddRowf(row...)
	}
	mean := []any{"MEAN"}
	for _, s := range sums {
		mean = append(mean, stats.Pct(s/float64(len(reds))))
	}
	t.AddRowf(mean...)
	return t, nil
}

// AblationRelated compares the paper's techniques with the related-work
// alternatives (§2): Park et al.'s sub-array-local RMW and Chang et al.'s
// word-granularity non-interleaved organization, on traffic, modeled CPI,
// and energy.
func AblationRelated(cfg Config) (*stats.Table, error) {
	t := stats.NewTable("A3 — related-work comparison (mean over benchmarks)",
		"scheme", "array accesses / request", "CPI", "nJ/access", "caveat")
	kinds := []core.Kind{core.RMW, core.LocalRMW, core.WordGranularity, core.Coalesce, core.WG, core.WGRB}
	caveats := map[core.Kind]string{
		core.RMW:             "baseline",
		core.LocalRMW:        "sub-array busy during write-back",
		core.WordGranularity: "needs multi-bit ECC (no interleaving)",
		core.Coalesce:        "block-granular write buffer (A4)",
		core.WG:              "paper",
		core.WGRB:            "paper",
	}
	means, err := meanPriced(cfg, kinds)
	if err != nil {
		return nil, err
	}
	for i, k := range kinds {
		m := means[i]
		t.AddRowf(k.String(),
			fmt.Sprintf("%.3f", m.accPerReq),
			fmt.Sprintf("%.4f", m.cpi),
			fmt.Sprintf("%.4f", m.nJ),
			caveats[k])
	}
	return t, nil
}
