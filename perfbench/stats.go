package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between the closest ranks of the sorted sample (the
// "type 7" estimator of R and numpy).  An empty sample has no quantile:
// NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailQuantile picks the highest of p90/p99/p99.9 that still leaves at
// least ten samples beyond it, so a reported tail is never a single
// outlier.  ok is false when even p90 is out of reach (fewer than 100
// samples).
func tailQuantile(n int) (q float64, name string, ok bool) {
	for _, c := range []struct {
		q    float64
		name string
		minN int
	}{{0.999, "p99.9", 10000}, {0.99, "p99", 1000}, {0.9, "p90", 100}} {
		if n >= c.minN {
			return c.q, c.name, true
		}
	}
	return 0, "", false
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// perUnit divides a total by a count, reading 0 for an empty count.
func perUnit(total float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return total / float64(n)
}
