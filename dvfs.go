package cache8t

import (
	"fmt"

	"cache8t/internal/energy"
	"cache8t/internal/sram"
	"cache8t/internal/timing"
	"cache8t/internal/workload"
)

// DVFSPoint is one operating level of a voltage/frequency sweep for a run.
type DVFSPoint struct {
	// VoltageV and FreqMHz define the level (frequency from an alpha-power
	// delay model anchored at 1.0 V / 2000 MHz).
	VoltageV float64
	FreqMHz  float64
	// SixTReachable and EightTReachable say whether a cache built from
	// each cell can operate at this level (its Vmin): the paper's §1
	// motivation is that the 6T cache walls off the lowest levels.
	SixTReachable   bool
	EightTReachable bool
	// EnergyPerAccessNJ is the modeled total (dynamic + leakage) cache
	// energy per demand access at this level, for the configured
	// controller on an 8T array.
	EnergyPerAccessNJ float64
	// CPI is the modeled cycles per instruction (frequency-independent in
	// this model; voltage only changes how many wall-clock seconds a cycle
	// takes).
	CPI float64
}

// DVFSSweep simulates n accesses of the named workload under cfg once, then
// prices the run across `levels` operating points descending from nominal
// voltage to just above threshold. It reports which points each cell kind
// can reach and the 8T energy at each reachable point.
func DVFSSweep(cfg Config, name string, seed uint64, n, levels int) ([]DVFSPoint, error) {
	if levels < 2 {
		return nil, fmt.Errorf("cache8t: need at least 2 DVFS levels, got %d", levels)
	}
	gen, err := workload.Stream(name, seed)
	if err != nil {
		return nil, err
	}
	sim, err := simulate(cfg, gen, n)
	if err != nil {
		return nil, err
	}
	res := sim[0]

	ap := sram.DefaultAlphaPower()
	// Sweep down to just above the device threshold so the table spans
	// both cells' Vmin.
	points, err := ap.Levels(ap.VthVolts+0.05, levels)
	if err != nil {
		return nil, err
	}
	tp := timing.DefaultParams()
	trep, err := timing.Evaluate(res, tp)
	if err != nil {
		return nil, err
	}
	six, err := energy.Sweep(res, sram.SixT, points, tp)
	if err != nil {
		return nil, err
	}
	eight, err := energy.Sweep(res, sram.EightT, points, tp)
	if err != nil {
		return nil, err
	}
	out := make([]DVFSPoint, len(points))
	for i, sp := range eight {
		out[i] = DVFSPoint{
			VoltageV:        sp.Point.VoltageV,
			FreqMHz:         sp.Point.FreqMHz,
			SixTReachable:   six[i].Reachable,
			EightTReachable: sp.Reachable,
			CPI:             trep.CPI(),
		}
		if sp.Reachable {
			out[i].EnergyPerAccessNJ = energy.PerAccessJ(sp.Report, res.Requests.Accesses()) * 1e9
		}
	}
	return out, nil
}
