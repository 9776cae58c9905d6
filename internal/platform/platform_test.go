package platform

import (
	"math"
	"strings"
	"testing"

	"repro/internal/prec"
	"repro/internal/starpu"
	"repro/internal/units"
)

func TestSpecsBuild(t *testing.T) {
	for _, spec := range AllSpecs() {
		p, err := New(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		wantWorkers := spec.Sockets*spec.CPUArch.Cores - spec.GPUCount + spec.GPUCount
		if p.NumWorkers() != wantWorkers {
			t.Errorf("%s: %d workers, want %d (cores - pinned + gpus)", spec.Name, p.NumWorkers(), wantWorkers)
		}
		if p.NumNodes() != spec.GPUCount+1 {
			t.Errorf("%s: %d nodes, want %d", spec.Name, p.NumNodes(), spec.GPUCount+1)
		}
		// First workers are CUDA, with distinct memory nodes.
		for i := 0; i < spec.GPUCount; i++ {
			w := p.Worker(i)
			if w.Kind != starpu.CUDAWorker || w.Node != i+1 {
				t.Errorf("%s: worker %d = %+v, want CUDA on node %d", spec.Name, i, w, i+1)
			}
		}
		if p.Worker(spec.GPUCount).Kind != starpu.CPUWorker {
			t.Errorf("%s: worker %d should be a CPU worker", spec.Name, spec.GPUCount)
		}
	}
}

func TestSpecByName(t *testing.T) {
	for _, name := range []string{TwoV100Name, TwoA100Name, FourA100Name} {
		s, err := SpecByName(name)
		if err != nil || s.Name != name {
			t.Errorf("SpecByName(%q) = %v, %v", name, s.Name, err)
		}
	}
	if _, err := SpecByName("H100-park"); err == nil {
		t.Error("unknown platform accepted")
	}
}

func TestSpecValidate(t *testing.T) {
	s := FourA100Spec()
	s.GPUCount = 0
	if _, err := New(s); err == nil {
		t.Error("spec with no GPUs accepted")
	}
	s = FourA100Spec()
	s.HostLink = 0
	if _, err := New(s); err == nil {
		t.Error("spec with no link bandwidth accepted")
	}
}

func TestWorkerClassTracksCap(t *testing.T) {
	p, err := New(FourA100Spec())
	if err != nil {
		t.Fatal(err)
	}
	before := p.WorkerClass(1) // cuda1
	if err := p.SetGPUCaps([]units.Watts{0, 216, 0, 0}); err != nil {
		t.Fatal(err)
	}
	after := p.WorkerClass(1)
	if before == after {
		t.Errorf("worker class did not change with cap: %q", after)
	}
	if !strings.Contains(after, "216") {
		t.Errorf("worker class %q does not embed the cap", after)
	}
	// Other GPUs unaffected.
	if got := p.WorkerClass(0); !strings.Contains(got, "400") {
		t.Errorf("uncapped class = %q, want default 400 W", got)
	}
}

func TestExecFasterOnGPU(t *testing.T) {
	p, err := New(FourA100Spec())
	if err != nil {
		t.Fatal(err)
	}
	cl := &starpu.Codelet{Name: "dgemm", Precision: prec.Double, CanCPU: true, CanCUDA: true}
	task := &starpu.Task{Codelet: cl, Work: 3.8e11} // 5760-tile dgemm
	gpuT := p.Exec(0, task)
	cpuT := p.Exec(p.GPUCount, task) // first CPU worker
	ratio := float64(cpuT) / float64(gpuT)
	if ratio < 100 {
		t.Errorf("CPU/GPU per-task ratio = %.0f, want large (one core vs full device)", ratio)
	}
}

func TestCapSlowsExec(t *testing.T) {
	p, err := New(FourA100Spec())
	if err != nil {
		t.Fatal(err)
	}
	cl := &starpu.Codelet{Name: "dgemm", Precision: prec.Double, CanCUDA: true}
	task := &starpu.Task{Codelet: cl, Work: 3.8e11}
	fast := p.Exec(0, task)
	if err := p.SetGPUCaps([]units.Watts{216, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	slow := p.Exec(0, task)
	if slow <= fast {
		t.Errorf("capped exec %v not slower than uncapped %v", slow, fast)
	}
	slowdown := 1 - float64(fast)/float64(slow)
	if slowdown < 0.1 || slowdown > 0.4 {
		t.Errorf("slowdown at 54%% cap = %.3f, want ~0.23", slowdown)
	}
}

func TestPowerMetersFollowTasks(t *testing.T) {
	p, err := New(TwoV100Spec())
	if err != nil {
		t.Fatal(err)
	}
	cl := &starpu.Codelet{Name: "dgemm", Precision: prec.Double, CanCUDA: true}
	task := &starpu.Task{Codelet: cl, Work: 1e11}
	idle := p.DeviceEnergy()
	_ = idle
	eng := p.Engine()

	// Simulate: 1 s idle, then a task on GPU0 for 2 s, then 1 s idle.
	eng.At(1, func() { p.OnTaskStart(0, task) })
	eng.At(3, func() { p.OnTaskEnd(0, task) })
	eng.At(4, func() {})
	eng.Run()

	e := p.DeviceEnergy()
	gpuIdle := float64(p.GPUArch.IdlePower)
	op := p.GPUs()[0].Operate(prec.Double, task.Work, 1)
	wantGPU := gpuIdle*2 + float64(op.Power)*2
	if math.Abs(float64(e["GPU0"])-wantGPU) > 1e-6 {
		t.Errorf("GPU0 energy = %v, want %.1f J", e["GPU0"], wantGPU)
	}
	// GPU1 stayed idle the whole 4 s.
	if math.Abs(float64(e["GPU1"])-gpuIdle*4) > 1e-6 {
		t.Errorf("GPU1 energy = %v, want %.1f J", e["GPU1"], gpuIdle*4)
	}
	// CPU0 hosts cuda0's pinned core: uncore*4 + core*2.
	wantCPU0 := float64(p.CPUArch.UncorePower)*4 + float64(p.Packages()[0].BusyCorePower())*2
	if math.Abs(float64(e["CPU0"])-wantCPU0) > 1e-6 {
		t.Errorf("CPU0 energy = %v, want %.1f J", e["CPU0"], wantCPU0)
	}
	total := p.TotalEnergy()
	var sum units.Joules
	for _, v := range e {
		sum += v
	}
	if math.Abs(float64(total-sum)) > 1e-9 {
		t.Errorf("TotalEnergy %v != sum of devices %v", total, sum)
	}
}

func TestResetMeters(t *testing.T) {
	p, err := New(TwoV100Spec())
	if err != nil {
		t.Fatal(err)
	}
	eng := p.Engine()
	eng.At(5, func() {})
	eng.Run()
	if p.TotalEnergy() == 0 {
		t.Fatal("idle energy should accumulate")
	}
	p.ResetMeters()
	if p.TotalEnergy() != 0 {
		t.Errorf("energy after reset = %v, want 0", p.TotalEnergy())
	}
}

func TestTransferTimes(t *testing.T) {
	p4, _ := New(FourA100Spec())
	p2, _ := New(TwoV100Spec())
	b := units.Bytes(265 * units.Mega) // one 5760x5760 double tile
	hostToGPU := p4.TransferTime(0, 1, b)
	peer := p4.TransferTime(1, 2, b)
	if peer >= hostToGPU {
		t.Errorf("NVLink peer transfer %v not faster than host link %v", peer, hostToGPU)
	}
	// On the V100 platform there is no NVLink: peer goes through host.
	peerV100 := p2.TransferTime(1, 2, b)
	hostV100 := p2.TransferTime(0, 1, b)
	if peerV100 <= hostV100 {
		t.Errorf("staged peer transfer %v should be slower than host link %v", peerV100, hostV100)
	}
	if p4.TransferTime(1, 1, b) != 0 {
		t.Error("same-node transfer should be free")
	}
}

func TestReserveLinkSerialises(t *testing.T) {
	p, _ := New(TwoV100Spec())
	b := units.Bytes(100 * units.Mega)
	_, end1 := p.ReserveLink(0, 1, 0, b)
	start2, _ := p.ReserveLink(0, 1, 0, b)
	if start2 != end1 {
		t.Errorf("second transfer starts at %v, want %v (serialised)", start2, end1)
	}
	// A different link is independent.
	start3, _ := p.ReserveLink(0, 2, 0, b)
	if start3 != 0 {
		t.Errorf("transfer on other link delayed: %v", start3)
	}
}

func TestSetGPUCapsValidation(t *testing.T) {
	p, _ := New(FourA100Spec())
	if err := p.SetGPUCaps([]units.Watts{0, 0}); err == nil {
		t.Error("wrong cap count accepted")
	}
	if err := p.SetGPUCaps([]units.Watts{10, 0, 0, 0}); err == nil {
		t.Error("cap below driver window accepted")
	}
	if err := p.SetGPUCaps([]units.Watts{400, 216, 100, 0}); err != nil {
		t.Errorf("valid caps rejected: %v", err)
	}
}

func TestSetCPUCap(t *testing.T) {
	p, _ := New(TwoV100Spec())
	if err := p.SetCPUCap(1, 60); err != nil {
		t.Errorf("48%% CPU cap rejected: %v", err)
	}
	if err := p.SetCPUCap(1, 10); err == nil {
		t.Error("unstable CPU cap accepted")
	}
}

func TestRuntimeOnPlatform(t *testing.T) {
	// End-to-end: a small batch of GEMM-ish tasks on the 4-GPU node
	// completes, uses the GPUs, and consumes energy.
	p, err := New(FourA100Spec())
	if err != nil {
		t.Fatal(err)
	}
	rt, err := starpu.New(p, starpu.Config{Scheduler: "dmda"})
	if err != nil {
		t.Fatal(err)
	}
	cl := &starpu.Codelet{Name: "dgemm", Precision: prec.Double, CanCPU: true, CanCUDA: true}
	for i := 0; i < 32; i++ {
		h := rt.Register(nil, 8, 5760, 5760)
		if err := rt.Submit(&starpu.Task{Codelet: cl, Handles: []*starpu.Handle{h}, Modes: []starpu.AccessMode{RWMode()}, Work: 3.8e11}); err != nil {
			t.Fatal(err)
		}
	}
	makespan, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if makespan <= 0 {
		t.Fatal("zero makespan")
	}
	if p.TotalEnergy() <= 0 {
		t.Fatal("no energy recorded")
	}
	gpuTasks := 0
	for _, tk := range rt.Tasks() {
		if rt.Workers()[tk.WorkerID].Info.Kind == starpu.CUDAWorker {
			gpuTasks++
		}
	}
	if gpuTasks < 24 {
		t.Errorf("only %d/32 tasks on GPUs", gpuTasks)
	}
}

// RWMode avoids importing starpu's constants ambiguously in the literal
// above.
func RWMode() starpu.AccessMode { return starpu.RW }

func TestExecPower(t *testing.T) {
	p, err := New(FourA100Spec())
	if err != nil {
		t.Fatal(err)
	}
	cl := &starpu.Codelet{Name: "dgemm", Precision: prec.Double, CanCPU: true, CanCUDA: true}
	task := &starpu.Task{Codelet: cl, Work: 3.8e11}
	gpuP := p.ExecPower(0, task)
	cpuP := p.ExecPower(p.GPUCount, task)
	if gpuP <= cpuP {
		t.Errorf("GPU marginal power %v not above CPU core power %v", gpuP, cpuP)
	}
	// Capping the GPU must lower its marginal power.
	if err := p.SetGPUCaps([]units.Watts{216, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	capped := p.ExecPower(0, task)
	if capped >= gpuP {
		t.Errorf("capped marginal power %v not below uncapped %v", capped, gpuP)
	}
}

func TestGPUWorkCounters(t *testing.T) {
	p, err := New(TwoV100Spec())
	if err != nil {
		t.Fatal(err)
	}
	cl := &starpu.Codelet{Name: "dgemm", Precision: prec.Double, CanCUDA: true}
	task := &starpu.Task{Codelet: cl, Work: 1e10}
	if p.GPUWorkDone(0) != 0 {
		t.Fatal("fresh platform has GPU work")
	}
	p.OnTaskStart(0, task)
	p.OnTaskEnd(0, task)
	if got := p.GPUWorkDone(0); got != 1e10 {
		t.Errorf("GPU0 work = %v, want 1e10", got)
	}
	if p.GPUWorkDone(1) != 0 {
		t.Error("GPU1 accumulated foreign work")
	}
}

func TestNodeCapacity(t *testing.T) {
	p, err := New(FourA100Spec())
	if err != nil {
		t.Fatal(err)
	}
	if p.NodeCapacity(0) != 0 {
		t.Error("host node should be unbounded")
	}
	for n := 1; n <= 4; n++ {
		if p.NodeCapacity(n) != p.GPUArch.MemoryBytes {
			t.Errorf("node %d capacity = %v, want %v", n, p.NodeCapacity(n), p.GPUArch.MemoryBytes)
		}
	}
}

func TestClassIgnoresCap(t *testing.T) {
	p, err := New(FourA100Spec())
	if err != nil {
		t.Fatal(err)
	}
	p.ClassIgnoresCap = true
	before := p.WorkerClass(0)
	if err := p.SetGPUCaps([]units.Watts{216, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	if after := p.WorkerClass(0); after != before {
		t.Errorf("class changed with cap despite ClassIgnoresCap: %q -> %q", before, after)
	}
	// Toggling the flag re-renders the cached class either way.
	p.ClassIgnoresCap = false
	if got := p.WorkerClass(0); got != "cuda0@216W" {
		t.Errorf("cap-keyed class = %q, want cuda0@216W", got)
	}
	p.ClassIgnoresCap = true
	if got := p.WorkerClass(0); got != before {
		t.Errorf("cap-blind class after toggling back = %q, want %q", got, before)
	}
}

func TestNVMLTemperature(t *testing.T) {
	p, err := New(FourA100Spec())
	if err != nil {
		t.Fatal(err)
	}
	h, _ := p.NVML.DeviceGetHandleByIndex(0)
	// Without tracing the sensor is unsupported.
	if _, ret := h.GetTemperature(); ret.Error() == nil {
		t.Error("temperature readable without power tracing")
	}
	p.EnablePowerTraces()
	cl := &starpu.Codelet{Name: "dgemm", Precision: prec.Double, CanCUDA: true}
	task := &starpu.Task{Codelet: cl, Work: 3.8e11}
	eng := p.Engine()
	eng.At(0, func() { p.OnTaskStart(0, task) })
	eng.At(60, func() { p.OnTaskEnd(0, task) })
	eng.At(60.5, func() {
		temp, ret := h.GetTemperature()
		if ret.Error() != nil {
			t.Errorf("GetTemperature: %v", ret)
		}
		// One minute of full-power dgemm: well above ambient, below the
		// throttle point.
		if temp < 50 || temp > 90 {
			t.Errorf("temperature after 60 s load = %d °C, want 50-90", temp)
		}
		// The idle GPU stays near ambient.
		h1, _ := p.NVML.DeviceGetHandleByIndex(1)
		idleTemp, ret := h1.GetTemperature()
		if ret.Error() != nil {
			t.Errorf("idle GetTemperature: %v", ret)
		}
		if idleTemp >= temp {
			t.Errorf("idle GPU (%d °C) not cooler than loaded GPU (%d °C)", idleTemp, temp)
		}
	})
	eng.Run()
}
