// Package stats provides the small numeric and reporting utilities shared by
// the experiment harness: means, quantiles, bootstrap confidence intervals,
// percentage helpers, aligned text tables, CSV and Markdown emission, and
// ASCII bar charts for figure-style output.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Max returns the maximum of xs, or 0 for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Percent formats ratio (0..1) as a percentage string like "27.3%".
func Percent(ratio float64) string {
	return fmt.Sprintf("%.1f%%", ratio*100)
}

// Ratio returns num/den, or 0 when den is 0. Event-count denominators are
// zero only for empty runs, where 0 is the honest answer.
func Ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// Reduction returns 1 - after/before: the fractional reduction of a count.
func Reduction(after, before uint64) float64 {
	if before == 0 {
		return 0
	}
	return 1 - float64(after)/float64(before)
}

// Quantile returns the q-quantile (0..1) of xs using linear interpolation.
// xs need not be sorted.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}
