package main

import (
	"math"
	"testing"
)

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.25, 1.75}, {0.5, 2.5}, {0.75, 3.25}, {1, 4}, {0.99, 3.97},
	} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 4 || xs[1] != 1 {
		t.Errorf("quantile sorted its input in place: %v", xs)
	}
	if got := median([]float64{7}); got != 7 {
		t.Errorf("median of one sample = %v", got)
	}
	if got := median(nil); !math.IsNaN(got) {
		t.Errorf("median of no samples = %v, want NaN", got)
	}
}

func TestTailQuantileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		name string
		ok   bool
	}{
		{99, "", false}, {100, "p90", true}, {999, "p90", true}, {1000, "p99", true}, {10000, "p99.9", true},
	} {
		q, name, ok := tailQuantile(c.n)
		if ok != c.ok || name != c.name {
			t.Errorf("tailQuantile(%d) = %q %v, want %q %v", c.n, name, ok, c.name, c.ok)
		}
		if ok && float64(c.n)*(1-q) < 10-1e-9 {
			t.Errorf("tailQuantile(%d) = %v leaves fewer than ten samples beyond", c.n, q)
		}
	}
}

func TestPerUnit(t *testing.T) {
	if got := perUnit(10, 4); got != 2.5 {
		t.Errorf("perUnit(10, 4) = %v", got)
	}
	if got := perUnit(10, 0); got != 0 {
		t.Errorf("perUnit over no units = %v, want 0", got)
	}
}
