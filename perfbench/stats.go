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

// median is the middle value of xs (the mean of the two middle values
// for an even count); NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives with its default "exclusive"
// method, so spreads computed here match the ones the acceptance
// check computes from the same values.  It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64, ok bool) {
	if len(xs) < 2 {
		return 0, 0, 0, false
	}
	s := sorted(xs)
	n := len(s)
	m := n + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4 // after the clamp, as Python computes it
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2], true
}

// minBeyond is how many samples must lie above a reported tail
// percentile: a tail read from fewer is one sample's noise.
const minBeyond = 10

// tail picks the highest nearest-rank percentile that still has at
// least minBeyond samples strictly beyond it, and returns its value,
// the percentile and the number of samples beyond it.  With too few
// samples for any such percentile it falls back to the median (pct 50)
// and reports how many samples lie above that.
func tail(xs []float64) (value, pct float64, beyond int) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), 0, 0
	}
	s := sorted(xs)
	k := n - 1 - minBeyond // 0-based rank with exactly minBeyond samples above it
	if k < 0 {
		k = (n - 1) / 2
		return s[k], 50, n - 1 - k
	}
	return s[k], 100 * float64(k+1) / float64(n), n - 1 - k
}
