package sram

import (
	"fmt"
	"math"
)

// DVFS modeling (§1): the whole motivation for 8T cells is that the cache's
// Vmin gates how far dynamic voltage/frequency scaling can descend. This file
// provides operating-point tables and an alpha-power-law delay model so the
// examples and experiment E9 can show the 6T wall and what 8T opens up.

// OperatingPoint is one DVFS level.
type OperatingPoint struct {
	VoltageV float64
	FreqMHz  float64
}

// String renders like "0.80V/1600MHz".
func (p OperatingPoint) String() string {
	return fmt.Sprintf("%.2fV/%.0fMHz", p.VoltageV, p.FreqMHz)
}

// AlphaPower models transistor drive with the alpha-power law: delay is
// proportional to V / (V - Vth)^alpha. Alpha ~1.3 fits short-channel devices.
type AlphaPower struct {
	VthVolts float64
	Alpha    float64
	// NominalV and NominalFreqMHz anchor the curve: FreqAt(NominalV) =
	// NominalFreqMHz.
	NominalV       float64
	NominalFreqMHz float64
}

// DefaultAlphaPower returns a 45 nm-class device model anchored at
// 1.0 V / 2000 MHz.
func DefaultAlphaPower() AlphaPower {
	return AlphaPower{VthVolts: 0.30, Alpha: 1.3, NominalV: 1.0, NominalFreqMHz: 2000}
}

// delayFactor returns relative delay at v (1.0 at NominalV); +Inf at or
// below threshold.
func (a AlphaPower) delayFactor(v float64) float64 {
	if v <= a.VthVolts {
		return math.Inf(1)
	}
	num := v / math.Pow(v-a.VthVolts, a.Alpha)
	den := a.NominalV / math.Pow(a.NominalV-a.VthVolts, a.Alpha)
	return num / den
}

// FreqAt returns the maximum operating frequency at voltage v in MHz.
func (a AlphaPower) FreqAt(v float64) float64 {
	d := a.delayFactor(v)
	if math.IsInf(d, 1) {
		return 0
	}
	return a.NominalFreqMHz / d
}

// Levels builds an n-point DVFS table descending from the nominal voltage to
// vmin (inclusive), with frequencies from the alpha-power law. More levels
// mean better fit to demand (§1: "the more the number of voltage levels the
// higher the chances of operating at the optimal voltage").
func (a AlphaPower) Levels(vmin float64, n int) ([]OperatingPoint, error) {
	if n < 2 {
		return nil, fmt.Errorf("sram: need at least 2 DVFS levels, got %d", n)
	}
	if vmin >= a.NominalV {
		return nil, fmt.Errorf("sram: vmin %.2f not below nominal %.2f", vmin, a.NominalV)
	}
	if vmin <= a.VthVolts {
		return nil, fmt.Errorf("sram: vmin %.2f at or below threshold %.2f", vmin, a.VthVolts)
	}
	out := make([]OperatingPoint, n)
	step := (a.NominalV - vmin) / float64(n-1)
	for i := range out {
		v := a.NominalV - float64(i)*step
		out[i] = OperatingPoint{VoltageV: v, FreqMHz: a.FreqAt(v)}
	}
	return out, nil
}

// EnergyPerOpAt returns dynamic energy of one composite op (given its energy
// at the model's voltage) rescaled to voltage v: E scales with V^2 for
// full-swing nets. Limited-swing terms scale slightly better; treating all
// terms as V^2 is conservative for the 8T advantage.
func EnergyPerOpAt(eAtVdd, vdd, v float64) float64 {
	ratio := v / vdd
	return eAtVdd * ratio * ratio
}
