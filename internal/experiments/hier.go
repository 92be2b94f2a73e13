package experiments

import (
	"cache8t/internal/cache"
	"cache8t/internal/core"
	"cache8t/internal/hier"
	"cache8t/internal/stats"
	"cache8t/internal/workload"
)

// The two-level experiment quantifies what the paper's single-level figures
// deliberately abstract away: the traffic an L1 write scheme presents to the
// level below it. The functional refill/write-back stream is identical for
// every L1 controller (DESIGN.md §5's functional-equivalence invariant), so
// the only per-scheme component of the L2-visible total is the WG family's
// premature Set-Buffer write-backs — RMW and WG+RB sit at the functional
// floor, plain WG above it by exactly its premature count.

// HierL2Shape returns the default second-level shape the two-level
// experiment drives: 256 KB, 8-way, LRU, sharing the L1's block size (the
// same defaults internal/server applies to a bare `l2` spec block).
func HierL2Shape(l1 cache.Config) cache.Config {
	return cache.Config{
		SizeBytes:  256 * 1024,
		Ways:       8,
		BlockBytes: l1.BlockBytes,
		Policy:     cache.LRU,
	}
}

// HierKinds are the L1 schemes the two-level comparison runs, in column
// order: the RMW baseline and the two write-grouping variants.
func HierKinds() []core.Kind { return []core.Kind{core.RMW, core.WG, core.WGRB} }

// HierPoint is one benchmark's downstream traffic under one L1 scheme.
type HierPoint struct {
	// Refills/Writebacks/PrematureWBs split the event stream; the first two
	// are kind-independent, the third is the scheme's whole delta.
	Refills      uint64
	Writebacks   uint64
	PrematureWBs uint64
	// L2Visible is the total traffic presented downstream and PerRequest its
	// demand-normalized form.
	L2Visible  uint64
	PerRequest float64
	// L2ArrayAccesses is the second-level controller's own array total under
	// the synthesized stream.
	L2ArrayAccesses uint64
}

// HierRow groups one benchmark's points across the compared L1 schemes, in
// HierKinds order.
type HierRow struct {
	Points []HierPoint
}

// HierMatrix runs every benchmark through one two-level hierarchy whose L1
// walk accounts every scheme in HierKinds, fanned out across the engine,
// and returns rows in profile order. The L2 is HierL2Shape under an RMW
// controller — the comparison varies only the L1 scheme, and the L2 stream
// does not depend on it. Hierarchy runs are serial by construction, so
// cfg.Shards does not apply; materialized and streaming sources produce
// identical rows like everywhere else.
func HierMatrix(cfg Config) ([]HierRow, error) {
	hcfg := hier.Config{
		L1Schemes: core.Schemes(cfg.Opts, HierKinds()...),
		L1:        cfg.Cache,
		L2Kind:    core.RMW,
		L2:        HierL2Shape(cfg.Cache),
	}
	return benchMap(cfg, func(prof workload.Profile, src *workload.Source) (HierRow, error) {
		s, err := src.Stream()
		if err != nil {
			return HierRow{}, err
		}
		res, err := hier.RunContext(cfg.ctx(), hcfg, s, 0, 0)
		if err != nil {
			return HierRow{}, err
		}
		row := HierRow{Points: make([]HierPoint, len(res))}
		for i, r := range res {
			row.Points[i] = HierPoint{
				Refills:         r.Traffic.Refills,
				Writebacks:      r.Traffic.Writebacks,
				PrematureWBs:    r.Traffic.PrematureWBs,
				L2Visible:       r.L2Visible(),
				PerRequest:      r.L2VisiblePerRequest(),
				L2ArrayAccesses: r.L2.ArrayAccesses(),
			}
		}
		return row, nil
	})
}

// Hier renders the two-level comparison: per-benchmark L2-visible traffic
// per L1 scheme, with WG's surplus over the functional floor isolated in the
// final column.
func Hier(cfg Config) (*stats.Table, error) {
	t := stats.NewTable("Two-level hierarchy — L2-visible traffic per L1 scheme (L2 256KB/8w RMW)",
		"benchmark", "RMW", "WG", "WG+RB", "WG premature WBs")
	rows, err := HierMatrix(cfg)
	if err != nil {
		return nil, err
	}
	var prem []float64
	for i, prof := range workload.Profiles() {
		p := rows[i].Points
		t.AddRowf(prof.Name, p[0].L2Visible, p[1].L2Visible, p[2].L2Visible, p[1].PrematureWBs)
		prem = append(prem, float64(p[1].PrematureWBs))
	}
	t.AddRowf("MEAN (measured)", "", "", "", stats.Mean(prem))
	return t, nil
}
