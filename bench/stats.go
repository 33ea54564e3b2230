package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle of xs (mean of the two middles for an even
// count), 0 for an empty sample.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile of xs by the rule
// Python's statistics.quantiles(values, n=4) uses (the "exclusive"
// method), which is the rule the benchmark contract measures spread with.
// Fewer than two samples have no spread: both quartiles are the sample.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return s[0], s[0]
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
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// percentile returns the p-th percentile (0 < p < 100) of xs by the
// nearest-rank rule: the smallest sample with at least p% of the samples
// at or below it. Latencies are reported this way so a reported value is
// always one that was observed.
func percentile(xs []float64, p float64) float64 {
	s := sorted(xs)
	if len(s) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// reportable lists the percentiles the harness knows how to print, in
// ascending order.
var reportable = []float64{50, 90, 99, 99.9}

// highestPercentile returns the highest reportable percentile that still
// has at least ten samples beyond it in a sample of n, or 0 when even the
// median does not (n < 20): a p99 over 300 samples is three points, not a
// percentile.
func highestPercentile(n int) float64 {
	best := 0.0
	for _, p := range reportable {
		// The epsilon keeps 1-p/100 (a float just below the exact tenth)
		// from dropping a sample count that sits exactly on the limit.
		if float64(n)*(1-p/100)+1e-9 >= 10 {
			best = p
		}
	}
	return best
}

// summary is one metric's repeated measurements reduced for printing and
// for -compare: the median, the quartiles and how many samples fed them.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

func summarize(xs []float64) summary {
	q1, q3 := quartiles(xs)
	return summary{Median: median(xs), Q1: q1, Q3: q3, N: len(xs)}
}

// spread is the distance between the quartiles as a share of the median,
// the quantity a metric's bound is compared against.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs(s.Q3-s.Q1) / math.Abs(s.Median)
}
