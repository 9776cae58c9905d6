package linalg

import (
	"math/rand"
	"testing"
)

func TestTrsmLeftLowerVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	n, m := 6, 4
	spd := NewSPD[float64](n, rng)
	l := spd.Clone()
	if err := PotrfLower(l); err != nil {
		t.Fatal(err)
	}
	x := NewRandom[float64](n, m, rng)

	// b = L * x, solve back with TrsmLeftLowerNonUnit.
	b := NewMat[float64](n, m)
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			var s float64
			for k := 0; k <= i; k++ {
				s += l.At(i, k) * x.At(k, j)
			}
			b.Set(i, j, s)
		}
	}
	TrsmLeftLowerNonUnit(1, l, b)
	if !Equalish(b, x, 1e-9) {
		t.Errorf("TrsmLeftLowerNonUnit: max diff %g", MaxAbsDiff(b, x))
	}

	// b = Lᵀ * x, solve back with TrsmLeftLowerTransNonUnit.
	b2 := NewMat[float64](n, m)
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			var s float64
			for k := i; k < n; k++ {
				s += l.At(k, i) * x.At(k, j)
			}
			b2.Set(i, j, s)
		}
	}
	TrsmLeftLowerTransNonUnit(1, l, b2)
	if !Equalish(b2, x, 1e-8) {
		t.Errorf("TrsmLeftLowerTransNonUnit: max diff %g", MaxAbsDiff(b2, x))
	}
}
