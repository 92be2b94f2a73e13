package sram

import (
	"fmt"
	"math"
)

// Statistical Vmin model: why the array's minimum voltage rises with
// capacity, and why 8T's margin matters more the bigger the cache.
//
// Each cell has a random intrinsic failure voltage (process variation,
// dominated by threshold mismatch), modeled as a Gaussian with a
// cell-dependent mean and sigma. An array of N bits works at voltage V only
// if *every* cell's failure voltage is below V, so the array Vmin is an
// extreme-value statistic: it grows with log N. This is the quantitative
// backbone of §1's "the cache is likely the bottleneck in deciding Vmin" —
// caches have the most bits, so they see the deepest tail.

// VminModel parameterizes the per-cell failure-voltage distribution.
type VminModel struct {
	// MeanVolts is the median cell failure voltage.
	MeanVolts float64
	// SigmaVolts is the cell-to-cell standard deviation.
	SigmaVolts float64
}

// DefaultVminModel returns representative 45 nm-class distributions. The 6T
// numbers reflect read-stability limits; the 8T cell decouples read from
// hold and both its mean and spread improve (Chang et al., Verma &
// Chandrakasan). Calibrated so that a 64 KB array lands near the headline
// Vmin figures (≈0.7 V for 6T, ≈0.35 V for 8T).
func DefaultVminModel(cell CellKind) VminModel {
	if cell == EightT {
		return VminModel{MeanVolts: 0.22, SigmaVolts: 0.022}
	}
	return VminModel{MeanVolts: 0.50, SigmaVolts: 0.034}
}

// CellFailProb returns the probability one cell fails at voltage v: the
// Gaussian upper tail of its failure voltage.
func (m VminModel) CellFailProb(v float64) float64 {
	if m.SigmaVolts <= 0 {
		if v >= m.MeanVolts {
			return 0
		}
		return 1
	}
	z := (v - m.MeanVolts) / m.SigmaVolts
	return 0.5 * math.Erfc(z/math.Sqrt2)
}

// ArrayYield returns the probability that an array of bits cells has no
// failing cell at voltage v.
func (m VminModel) ArrayYield(v float64, bits int) float64 {
	if bits <= 0 {
		return 1
	}
	p := m.CellFailProb(v)
	// log-domain for numerical stability at tiny p and huge N.
	return math.Exp(float64(bits) * math.Log1p(-p))
}

// ArrayVmin solves for the lowest voltage at which the array meets the
// target yield (e.g. 0.99), by bisection over a generous voltage range.
func (m VminModel) ArrayVmin(bits int, targetYield float64) (float64, error) {
	if bits <= 0 {
		return 0, fmt.Errorf("sram: non-positive bit count %d", bits)
	}
	if targetYield <= 0 || targetYield >= 1 {
		return 0, fmt.Errorf("sram: target yield %v out of (0,1)", targetYield)
	}
	lo, hi := m.MeanVolts, m.MeanVolts+20*m.SigmaVolts
	if m.ArrayYield(hi, bits) < targetYield {
		return 0, fmt.Errorf("sram: yield %v unreachable even at %.2f V", targetYield, hi)
	}
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		if m.ArrayYield(mid, bits) >= targetYield {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, nil
}
