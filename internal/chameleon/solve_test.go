package chameleon

import (
	"math/rand"
	"testing"

	"repro/internal/linalg"
	"repro/internal/starpu"
)

func TestPosvSolvesSystem(t *testing.T) {
	rt := newRuntime(t)
	rng := rand.New(rand.NewSource(21))
	const n, nb, m = 48, 16, 48
	a, _ := NewDesc[float64](rt, n, nb, true)
	b, _ := NewDesc[float64](rt, n, nb, true)
	spd := linalg.NewSPD[float64](n, rng)
	if err := a.Scatter(spd); err != nil {
		t.Fatal(err)
	}
	x := linalg.NewRandom[float64](n, m, rng)
	rhs := linalg.NewMat[float64](n, m)
	linalg.Gemm(linalg.NoTrans, linalg.NoTrans, 1, spd, x, 0, rhs)
	if err := b.Scatter(rhs); err != nil {
		t.Fatal(err)
	}
	if err := Posv(rt, a, b); err != nil {
		t.Fatal(err)
	}
	if err := rt.RunNumeric(8); err != nil {
		t.Fatal(err)
	}
	got, err := b.Gather()
	if err != nil {
		t.Fatal(err)
	}
	if !linalg.Equalish(got, x, 1e-8) {
		t.Errorf("posv solution max diff %g", linalg.MaxAbsDiff(got, x))
	}
}

func TestPotrsDescriptorMismatch(t *testing.T) {
	rt := newRuntime(t)
	a, _ := NewDesc[float64](rt, 32, 16, false)
	b, _ := NewDesc[float64](rt, 32, 8, false)
	if err := Potrs(rt, a, b); err == nil {
		t.Error("mismatched descriptors accepted")
	}
}

// TestPosvSimulated runs the solver DAG through the energy simulation:
// the combined factor+solve completes and uses both worker kinds.
func TestPosvSimulated(t *testing.T) {
	rt := newRuntime(t)
	a, _ := NewDesc[float64](rt, 2880*8, 2880, false)
	b, _ := NewDesc[float64](rt, 2880*8, 2880, false)
	if err := Posv(rt, a, b); err != nil {
		t.Fatal(err)
	}
	makespan, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if makespan <= 0 {
		t.Fatal("no makespan")
	}
	kinds := map[starpu.WorkerKind]int{}
	for _, tk := range rt.Tasks() {
		kinds[rt.Workers()[tk.WorkerID].Info.Kind]++
	}
	if kinds[starpu.CPUWorker] == 0 || kinds[starpu.CUDAWorker] == 0 {
		t.Errorf("kind distribution = %v, want both used", kinds)
	}
}
