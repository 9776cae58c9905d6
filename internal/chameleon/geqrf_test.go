package chameleon

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/linalg"
	"repro/internal/starpu"
)

// trsmRightUpper solves X*U = B in place over B, i.e. B := B*U⁻¹, for
// an upper-triangular U with a non-zero diagonal: the Q = A R⁻¹ oracle
// of the QR tests.
func trsmRightUpper(u, b *linalg.Mat[float64]) {
	if u.Rows != u.Cols || b.Cols != u.Rows {
		panic(fmt.Sprintf("trsm shape mismatch: U=%dx%d B=%dx%d", u.Rows, u.Cols, b.Rows, b.Cols))
	}
	n := u.Rows
	for i := 0; i < b.Rows; i++ {
		row := b.Row(i)
		for j := 0; j < n; j++ {
			s := row[j]
			for k := 0; k < j; k++ {
				s -= row[k] * u.At(k, j)
			}
			row[j] = s / u.At(j, j)
		}
	}
}

func TestTrsmRightUpper(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	n, m := 5, 6
	// A random upper-triangular U with a boosted diagonal.
	u := linalg.NewMat[float64](n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			u.Set(i, j, 2*rng.Float64()-1)
		}
		u.Set(i, i, float64(n)+rng.Float64())
	}
	x := linalg.NewRandom[float64](m, n, rng)
	b := linalg.NewMat[float64](m, n)
	linalg.Gemm(linalg.NoTrans, linalg.NoTrans, 1, x, u, 0, b)
	trsmRightUpper(u, b)
	if !linalg.Equalish(b, x, 1e-9) {
		t.Errorf("trsmRightUpper: max diff %g", linalg.MaxAbsDiff(b, x))
	}
}

// extractR pulls the upper triangle (R) out of a factored QR matrix.
func extractR(m *linalg.Mat[float64]) *linalg.Mat[float64] {
	r := linalg.NewMat[float64](m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		for j := i; j < m.Cols; j++ {
			r.Set(i, j, m.At(i, j))
		}
	}
	return r
}

// TestGeqrfNumeric verifies the tile QR end to end: with R from the
// factorisation, Q := A_orig R⁻¹ must be orthonormal (which, R being
// upper triangular, certifies A = QR).
func TestGeqrfNumeric(t *testing.T) {
	for _, n := range []int{32, 64} {
		rt := newRuntime(t)
		rng := rand.New(rand.NewSource(40))
		d, _ := NewDesc[float64](rt, n, 16, true)
		orig := linalg.NewRandom[float64](n, n, rng)
		if err := d.Scatter(orig); err != nil {
			t.Fatal(err)
		}
		if _, err := Geqrf(rt, d); err != nil {
			t.Fatal(err)
		}
		if err := rt.RunNumeric(8); err != nil {
			t.Fatal(err)
		}
		factored, err := d.Gather()
		if err != nil {
			t.Fatal(err)
		}
		r := extractR(factored)
		q := orig.Clone()
		trsmRightUpper(r, q) // Q = A R^-1
		worst := 0.0
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				var s float64
				for k := 0; k < n; k++ {
					s += q.At(k, i) * q.At(k, j)
				}
				want := 0.0
				if i == j {
					want = 1
				}
				worst = math.Max(worst, math.Abs(s-want))
			}
		}
		if worst > 1e-8 {
			t.Errorf("n=%d: QᵀQ deviates from I by %g", n, worst)
		}
	}
}

// TestGeqrfMatchesDenseR: R agrees with the unblocked reference QR up
// to row signs (QR uniqueness).
func TestGeqrfMatchesDenseR(t *testing.T) {
	const n, nb = 48, 16
	rt := newRuntime(t)
	rng := rand.New(rand.NewSource(41))
	d, _ := NewDesc[float64](rt, n, nb, true)
	orig := linalg.NewRandom[float64](n, n, rng)
	if err := d.Scatter(orig); err != nil {
		t.Fatal(err)
	}
	if _, err := Geqrf(rt, d); err != nil {
		t.Fatal(err)
	}
	if err := rt.RunNumeric(8); err != nil {
		t.Fatal(err)
	}
	factored, _ := d.Gather()
	tileR := extractR(factored)

	ref := orig.Clone()
	tau := make([]float64, n)
	linalg.Geqr2(ref, tau)
	refR := extractR(ref)

	// Normalise row signs so both Rs have non-negative diagonals.
	normalise := func(m *linalg.Mat[float64]) {
		for i := 0; i < m.Rows; i++ {
			if m.At(i, i) < 0 {
				row := m.Row(i)
				for j := range row {
					row[j] = -row[j]
				}
			}
		}
	}
	normalise(tileR)
	normalise(refR)
	if !linalg.Equalish(tileR, refR, 1e-8) {
		t.Errorf("tile R differs from dense R: max diff %g", linalg.MaxAbsDiff(tileR, refR))
	}
}

func TestGeqrfTaskCount(t *testing.T) {
	rt := newRuntime(t)
	d, _ := NewDesc[float64](rt, 64, 16, false) // nt = 4
	if _, err := Geqrf(rt, d); err != nil {
		t.Fatal(err)
	}
	if got, want := len(rt.Tasks()), GeqrfTaskCount(4); got != want {
		t.Errorf("task count = %d, want %d", got, want)
	}
}

func TestGeqrfRequiresEvenTiling(t *testing.T) {
	rt := newRuntime(t)
	d, _ := NewDesc[float64](rt, 50, 16, false)
	if _, err := Geqrf(rt, d); err == nil {
		t.Error("ragged tiling accepted")
	}
}

func TestGeqrfPanelsOnCPU(t *testing.T) {
	rt := newRuntime(t)
	d, _ := NewDesc[float64](rt, 2880*4, 2880, false)
	if _, err := Geqrf(rt, d); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	gpuUpdates := 0
	for _, tk := range rt.Tasks() {
		kind := rt.Workers()[tk.WorkerID].Info.Kind
		switch tk.Codelet.Name {
		case "dgeqrt", "dtsqrt":
			if kind != starpu.CPUWorker {
				t.Errorf("%s ran on a GPU", tk.Tag)
			}
		case "dtsmqr", "dunmqr":
			if kind == starpu.CUDAWorker {
				gpuUpdates++
			}
		}
	}
	if gpuUpdates == 0 {
		t.Error("no QR updates ran on the GPUs")
	}
}

func TestGeqrfSinglePrecision(t *testing.T) {
	const n, nb = 32, 16
	rt := newRuntime(t)
	rng := rand.New(rand.NewSource(42))
	d, _ := NewDesc[float32](rt, n, nb, true)
	orig := linalg.NewRandom[float32](n, n, rng)
	if err := d.Scatter(orig); err != nil {
		t.Fatal(err)
	}
	w, err := Geqrf(rt, d)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.RunNumeric(4); err != nil {
		t.Fatal(err)
	}
	if w.PanelTau(0) == nil {
		t.Error("numeric workspace has no tau")
	}
	factored, _ := d.Gather()
	// Spot check: R's diagonal is nonzero.
	for i := 0; i < n; i++ {
		if factored.At(i, i) == 0 {
			t.Fatalf("zero diagonal at %d", i)
		}
	}
}
