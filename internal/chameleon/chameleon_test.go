package chameleon

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/linalg"
	"repro/internal/platform"
	"repro/internal/starpu"
	"repro/internal/units"
)

func newRuntime(t *testing.T) *starpu.Runtime {
	t.Helper()
	p, err := platform.New(platform.FourA100Spec())
	if err != nil {
		t.Fatal(err)
	}
	rt, err := starpu.New(p, starpu.Config{Scheduler: "dmdas", Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

func TestDescGeometry(t *testing.T) {
	rt := newRuntime(t)
	d, err := NewDesc[float64](rt, 100, 32, false)
	if err != nil {
		t.Fatal(err)
	}
	if d.NT != 4 {
		t.Errorf("NT = %d, want 4", d.NT)
	}
	if d.TileDim(0) != 32 || d.TileDim(3) != 4 {
		t.Errorf("tile dims = %d, %d; want 32, 4", d.TileDim(0), d.TileDim(3))
	}
	if d.Numeric() {
		t.Error("cost-only descriptor claims numeric")
	}
	if d.Tile(0, 0) != nil {
		t.Error("cost-only descriptor has tiles")
	}
	if _, err := NewDesc[float64](rt, 0, 32, false); err == nil {
		t.Error("zero-size descriptor accepted")
	}
}

func TestScatterGatherRoundTrip(t *testing.T) {
	rt := newRuntime(t)
	rng := rand.New(rand.NewSource(1))
	d, err := NewDesc[float64](rt, 50, 16, true)
	if err != nil {
		t.Fatal(err)
	}
	m := linalg.NewRandom[float64](50, 50, rng)
	if err := d.Scatter(m); err != nil {
		t.Fatal(err)
	}
	back, err := d.Gather()
	if err != nil {
		t.Fatal(err)
	}
	if !linalg.Equalish(m, back, 0) {
		t.Errorf("scatter/gather mismatch: %g", linalg.MaxAbsDiff(m, back))
	}
}

func TestGemmNumericMatchesReference(t *testing.T) {
	for _, n := range []int{48, 50} { // even and ragged tiling
		rt := newRuntime(t)
		rng := rand.New(rand.NewSource(2))
		a, _ := NewDesc[float64](rt, n, 16, true)
		b, _ := NewDesc[float64](rt, n, 16, true)
		c, _ := NewDesc[float64](rt, n, 16, true)
		fa := linalg.NewRandom[float64](n, n, rng)
		fb := linalg.NewRandom[float64](n, n, rng)
		fc := linalg.NewRandom[float64](n, n, rng)
		if err := a.Scatter(fa); err != nil {
			t.Fatal(err)
		}
		if err := b.Scatter(fb); err != nil {
			t.Fatal(err)
		}
		if err := c.Scatter(fc); err != nil {
			t.Fatal(err)
		}
		if err := Gemm(rt, 1.5, a, b, -0.5, c); err != nil {
			t.Fatal(err)
		}
		if err := rt.RunNumeric(8); err != nil {
			t.Fatal(err)
		}
		want := fc.Clone()
		linalg.Gemm(linalg.NoTrans, linalg.NoTrans, 1.5, fa, fb, -0.5, want)
		got, err := c.Gather()
		if err != nil {
			t.Fatal(err)
		}
		if !linalg.Equalish(got, want, 1e-9) {
			t.Errorf("n=%d: tiled gemm mismatch: max diff %g", n, linalg.MaxAbsDiff(got, want))
		}
	}
}

func TestGemmDescriptorMismatch(t *testing.T) {
	rt := newRuntime(t)
	a, _ := NewDesc[float64](rt, 32, 16, false)
	b, _ := NewDesc[float64](rt, 32, 8, false)
	if err := Gemm(rt, 1.0, a, b, 0, a); err == nil {
		t.Error("mismatched tile sizes accepted")
	}
}

func TestGemmTaskCount(t *testing.T) {
	rt := newRuntime(t)
	a, _ := NewDesc[float64](rt, 64, 16, false) // NT = 4
	b, _ := NewDesc[float64](rt, 64, 16, false)
	c, _ := NewDesc[float64](rt, 64, 16, false)
	if err := Gemm(rt, 1.0, a, b, 0.0, c); err != nil {
		t.Fatal(err)
	}
	if got := len(rt.Tasks()); got != 64 { // NT^3
		t.Errorf("gemm task count = %d, want 64", got)
	}
}

func TestPotrfNumericFactorises(t *testing.T) {
	for _, n := range []int{48, 52} { // even and ragged tiling
		rt := newRuntime(t)
		rng := rand.New(rand.NewSource(3))
		d, _ := NewDesc[float64](rt, n, 16, true)
		full := linalg.NewSPD[float64](n, rng)
		if err := d.Scatter(full); err != nil {
			t.Fatal(err)
		}
		if err := Potrf(rt, d); err != nil {
			t.Fatal(err)
		}
		if err := rt.RunNumeric(8); err != nil {
			t.Fatal(err)
		}
		l, err := d.Gather()
		if err != nil {
			t.Fatal(err)
		}
		if r := linalg.CholeskyResidual(full, l); r > 1e-10 {
			t.Errorf("n=%d: tiled cholesky residual %g", n, r)
		}
		// Must match the unblocked reference factor too (same math).
		ref := full.Clone()
		if err := linalg.PotrfLower(ref); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			for j := 0; j <= i; j++ {
				diff := l.At(i, j) - ref.At(i, j)
				if diff < 0 {
					diff = -diff
				}
				if diff > 1e-9 {
					t.Fatalf("n=%d: factor differs from LAPACK-style reference at (%d,%d)", n, i, j)
				}
			}
		}
	}
}

func TestPotrfSinglePrecision(t *testing.T) {
	rt := newRuntime(t)
	rng := rand.New(rand.NewSource(4))
	n := 40
	d, _ := NewDesc[float32](rt, n, 16, true)
	full := linalg.NewSPD[float32](n, rng)
	if err := d.Scatter(full); err != nil {
		t.Fatal(err)
	}
	if err := Potrf(rt, d); err != nil {
		t.Fatal(err)
	}
	if err := rt.RunNumeric(4); err != nil {
		t.Fatal(err)
	}
	l, _ := d.Gather()
	if r := linalg.CholeskyResidual(full, l); r > 1e-4 {
		t.Errorf("float32 residual %g", r)
	}
}

func TestPotrfTaskCountFormula(t *testing.T) {
	// §III-C: the POTRF DAG has N(N+1)(N+2)/6 vertices for N x N tiles.
	for _, nt := range []int{1, 2, 4, 7} {
		rt := newRuntime(t)
		d, _ := NewDesc[float64](rt, nt*16, 16, false)
		if err := Potrf(rt, d); err != nil {
			t.Fatal(err)
		}
		want := PotrfTaskCount(nt)
		if got := len(rt.Tasks()); got != want {
			t.Errorf("nt=%d: task count %d, want %d", nt, got, want)
		}
	}
}

func TestPotrfPriorities(t *testing.T) {
	rt := newRuntime(t)
	d, _ := NewDesc[float64](rt, 64, 16, false) // NT = 4
	if err := Potrf(rt, d); err != nil {
		t.Fatal(err)
	}
	byTag := map[string]*starpu.Task{}
	for _, tk := range rt.Tasks() {
		byTag[tk.Tag] = tk
	}
	// The panel factorisation dominates its own step's updates...
	if byTag["potrf(0)"].Priority <= byTag["trsm(1,0)"].Priority {
		t.Error("potrf(0) not above trsm(1,0)")
	}
	if byTag["trsm(1,0)"].Priority <= byTag["gemm(2,1,0)"].Priority {
		t.Error("trsm(1,0) not above gemm(2,1,0)")
	}
	// ...and earlier panels dominate later ones.
	if byTag["gemm(2,1,0)"].Priority <= byTag["potrf(1)"].Priority {
		t.Error("step-0 updates should outrank step-1 panel")
	}
}

func TestPotrfRunsPanelOnCPU(t *testing.T) {
	rt := newRuntime(t)
	d, _ := NewDesc[float64](rt, 5760*4, 5760, false)
	if err := Potrf(rt, d); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	for _, tk := range rt.Tasks() {
		if strings.HasPrefix(tk.Tag, "potrf(") {
			if rt.Workers()[tk.WorkerID].Info.Kind != starpu.CPUWorker {
				t.Errorf("%s ran on %s, want CPU", tk.Tag, rt.Workers()[tk.WorkerID].Info.Name)
			}
		}
	}
}

func TestSimulatedGemmUsesGPUs(t *testing.T) {
	rt := newRuntime(t)
	// Paper's 32-AMD-4-A100 GEMM config: N=74880, NB=5760 -> NT=13.
	a, _ := NewDesc[float64](rt, 74880, 5760, false)
	b, _ := NewDesc[float64](rt, 74880, 5760, false)
	c, _ := NewDesc[float64](rt, 74880, 5760, false)
	if err := Gemm(rt, 1.0, a, b, 0.0, c); err != nil {
		t.Fatal(err)
	}
	makespan, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if makespan <= 0 {
		t.Fatal("no makespan")
	}
	gpuTasks := 0
	for _, tk := range rt.Tasks() {
		if rt.Workers()[tk.WorkerID].Info.Kind == starpu.CUDAWorker {
			gpuTasks++
		}
	}
	frac := float64(gpuTasks) / float64(len(rt.Tasks()))
	if frac < 0.9 {
		t.Errorf("only %.0f%% of gemm tasks on GPUs", frac*100)
	}
	// Aggregate rate should land in the tens of Tflop/s.
	rate := units.Rate(GemmFlops(74880), makespan)
	if float64(rate) < 20e12 || float64(rate) > 80e12 {
		t.Errorf("simulated 4xA100 dgemm rate = %v, want tens of Tflop/s", rate)
	}
}

func TestCodeletLookup(t *testing.T) {
	for _, name := range []string{"dgemm", "sgemm", "dpotrf", "spotrf", "dtrsm", "strsm", "dsyrk", "ssyrk"} {
		if Codelet(name) == nil {
			t.Errorf("codelet %q missing", name)
		}
	}
	if Codelet("zgemm") != nil {
		t.Error("unexpected codelet zgemm")
	}
	if Codelet("dpotrf").CanCUDA {
		t.Error("potrf should be CPU-only")
	}
}

// TestNumericAcrossSchedulers: the numeric executor is independent of
// the simulated scheduler, but the DAG construction is shared — verify
// a GEMM stays numerically correct when built under every policy.
func TestNumericAcrossSchedulers(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	n := 48
	fa := linalg.NewRandom[float64](n, n, rng)
	fb := linalg.NewRandom[float64](n, n, rng)
	want := linalg.NewMat[float64](n, n)
	linalg.Gemm(linalg.NoTrans, linalg.NoTrans, 1, fa, fb, 0, want)
	for _, sched := range starpu.SchedulerNames() {
		p, err := platform.New(platform.TwoV100Spec())
		if err != nil {
			t.Fatal(err)
		}
		rt, err := starpu.New(p, starpu.Config{Scheduler: sched})
		if err != nil {
			t.Fatal(err)
		}
		a, _ := NewDesc[float64](rt, n, 16, true)
		b, _ := NewDesc[float64](rt, n, 16, true)
		c, _ := NewDesc[float64](rt, n, 16, true)
		if err := a.Scatter(fa); err != nil {
			t.Fatal(err)
		}
		if err := b.Scatter(fb); err != nil {
			t.Fatal(err)
		}
		if err := Gemm(rt, 1.0, a, b, 0.0, c); err != nil {
			t.Fatal(err)
		}
		if err := rt.RunNumeric(4); err != nil {
			t.Fatalf("%s: %v", sched, err)
		}
		got, err := c.Gather()
		if err != nil {
			t.Fatal(err)
		}
		if !linalg.Equalish(got, want, 1e-10) {
			t.Errorf("%s: numeric gemm mismatch %g", sched, linalg.MaxAbsDiff(got, want))
		}
	}
}

// TestSimNumericAgreement: running the simulation first and the numeric
// pass afterwards on the same runtime must still produce correct
// results (the DES consumes dependency counters; RunNumeric rebuilds
// its own).
func TestSimNumericAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(100))
	n := 32
	p, err := platform.New(platform.FourA100Spec())
	if err != nil {
		t.Fatal(err)
	}
	rt, err := starpu.New(p, starpu.Config{})
	if err != nil {
		t.Fatal(err)
	}
	d, _ := NewDesc[float64](rt, n, 16, true)
	spd := linalg.NewSPD[float64](n, rng)
	if err := d.Scatter(spd); err != nil {
		t.Fatal(err)
	}
	if err := Potrf(rt, d); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(); err != nil { // virtual-time pass
		t.Fatal(err)
	}
	if err := rt.RunNumeric(4); err != nil { // then real arithmetic
		t.Fatal(err)
	}
	l, _ := d.Gather()
	if r := linalg.CholeskyResidual(spd, l); r > 1e-10 {
		t.Errorf("residual after sim+numeric: %g", r)
	}
}

// TestTaskTagMatchesSprintf: the tag helper must render exactly what
// the fmt verbs it replaced did — traces and golden digests key on tags.
func TestTaskTagMatchesSprintf(t *testing.T) {
	for _, idx := range [][]int{{0}, {7, 0}, {12, 3, 9}, {1234567, 89, 0}} {
		want := "gemm("
		for n, i := range idx {
			if n > 0 {
				want += ","
			}
			want += fmt.Sprintf("%d", i)
		}
		want += ")"
		if got := taskTag("gemm", idx...); got != want {
			t.Errorf("taskTag(%v) = %q, want %q", idx, got, want)
		}
	}
	if got, want := taskTag("lu-bwd-gemm", 3, 1, 4), fmt.Sprintf("lu-bwd-gemm(%d,%d,%d)", 3, 1, 4); got != want {
		t.Errorf("taskTag = %q, want %q", got, want)
	}
}
