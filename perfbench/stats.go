package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before it
// is reported: p50 needs 20 samples, p90 100 and p99 1000.
const minBeyond = 10

// percentile returns the q-quantile (0 < q < 1) of xs, interpolating
// between the two nearest ranks. ok is false, and the percentile
// omitted, when fewer than minBeyond samples lie beyond it.
func percentile(xs []float64, q float64) (v float64, ok bool) {
	n := len(xs)
	if n == 0 || float64(n)*(1-q) < minBeyond-1e-9 {
		return 0, false
	}
	return quantile(xs, q), true
}

// quantile is percentile without the sample-count rule.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

// median is the 0.5 quantile with no sample-count rule, for summaries
// of a few per-pass values.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio divides, reading 0 for an empty denominator.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
