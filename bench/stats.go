package main

import (
	"math"
	"sort"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quartiles returns the first quartile, the median and the third quartile of
// xs by the same rule as Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), so the spreads this benchmark reports are the ones a
// reader recomputes from the raw values. One sample is its own quartiles;
// no samples give NaN.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// median returns the median of xs (NaN when empty).
func median(xs []float64) float64 {
	_, q2, _ := quartiles(xs)
	return q2
}

// tailPercentiles is the ladder the tail rule picks from, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// tail returns the highest percentile of the ladder that has at least ten
// samples beyond it, and its nearest-rank value. ok is false when even the
// median has fewer than ten samples beyond it.
func tail(xs []float64) (pct, value float64, ok bool) {
	s := sorted(xs)
	n := len(s)
	for _, p := range tailPercentiles {
		rank := int(math.Ceil(p / 100 * float64(n)))
		if rank < 1 || n-rank < 10 {
			continue
		}
		return p, s[rank-1], true
	}
	return 0, 0, false
}

// spread returns the distance between the quartiles of xs as a share of
// their median: the run-to-run noise the benchmark's bounds are judged
// against.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(q2)
}

// rank returns the nearest-rank p-th percentile of xs.
func rank(xs []float64, p float64) float64 {
	s := sorted(xs)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}
