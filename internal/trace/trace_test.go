package trace

import (
	"strings"
	"testing"

	"repro/internal/chameleon"
	"repro/internal/platform"
	"repro/internal/starpu"
)

func runSmallPotrf(t *testing.T) *starpu.Runtime {
	t.Helper()
	p, err := platform.New(platform.TwoV100Spec())
	if err != nil {
		t.Fatal(err)
	}
	rt, err := starpu.New(p, starpu.Config{Scheduler: "dmdas"})
	if err != nil {
		t.Fatal(err)
	}
	d, err := chameleon.NewDesc[float64](rt, 1920*6, 1920, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := chameleon.Potrf(rt, d); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	return rt
}

func TestCollect(t *testing.T) {
	rt := runSmallPotrf(t)
	s := Collect(rt)
	if s.TotalTasks != chameleon.PotrfTaskCount(6) {
		t.Errorf("TotalTasks = %d, want %d", s.TotalTasks, chameleon.PotrfTaskCount(6))
	}
	if s.Makespan <= 0 {
		t.Error("no makespan")
	}
	// potrf panels are CPU-only, so both kinds must have run tasks.
	if s.ByKind[starpu.CPUWorker] == 0 || s.ByKind[starpu.CUDAWorker] == 0 {
		t.Errorf("ByKind = %v, want both kinds busy", s.ByKind)
	}
	if s.ByCodelet["dpotrf"] != 6 {
		t.Errorf("dpotrf count = %d, want 6", s.ByCodelet["dpotrf"])
	}
	if s.GPUShare <= 0 || s.GPUShare >= 1 {
		t.Errorf("GPUShare = %v, want in (0,1)", s.GPUShare)
	}
	if s.TransferBytes <= 0 {
		t.Error("no transfers recorded")
	}
	sum := 0
	for _, w := range s.Workers {
		sum += w.Tasks
	}
	if sum != s.TotalTasks {
		t.Errorf("per-worker tasks sum %d != total %d", sum, s.TotalTasks)
	}
	idle := s.IdleFraction()
	if idle <= 0 || idle >= 1 {
		t.Errorf("IdleFraction = %v, want in (0,1)", idle)
	}
}

func TestStatsString(t *testing.T) {
	rt := runSmallPotrf(t)
	out := Collect(rt).String()
	for _, want := range []string{"makespan", "dpotrf", "dgemm", "tasks"} {
		if !strings.Contains(out, want) {
			t.Errorf("Stats.String() missing %q:\n%s", want, out)
		}
	}
}

func TestWriteGantt(t *testing.T) {
	rt := runSmallPotrf(t)
	var b strings.Builder
	if err := WriteGantt(&b, rt); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
	if len(lines) != chameleon.PotrfTaskCount(6)+1 {
		t.Fatalf("gantt rows = %d, want tasks+header", len(lines))
	}
	if lines[0] != "worker,kind,codelet,tag,start_s,end_s,priority" {
		t.Errorf("header = %q", lines[0])
	}
	// Rows are sorted by start time.
	if !strings.Contains(lines[1], "potrf(0)") {
		t.Errorf("first row should be the first panel: %q", lines[1])
	}
}

func TestCollectEmptyRuntime(t *testing.T) {
	p, err := platform.New(platform.TwoV100Spec())
	if err != nil {
		t.Fatal(err)
	}
	rt, err := starpu.New(p, starpu.Config{})
	if err != nil {
		t.Fatal(err)
	}
	s := Collect(rt)
	if s.TotalTasks != 0 || s.Makespan != 0 || s.GPUShare != 0 {
		t.Errorf("empty stats = %+v", s)
	}
	if s.IdleFraction() != 0 {
		t.Error("IdleFraction on empty run should be 0")
	}
}

func TestWritePowerTrace(t *testing.T) {
	p, err := platform.New(platform.TwoV100Spec())
	if err != nil {
		t.Fatal(err)
	}
	p.EnablePowerTraces()
	rt, err := starpu.New(p, starpu.Config{Scheduler: "dmdas"})
	if err != nil {
		t.Fatal(err)
	}
	d, err := chameleon.NewDesc[float64](rt, 1920*4, 1920, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := chameleon.Potrf(rt, d); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	traces := p.PowerTraces()
	if len(traces) != 4 { // CPU0 CPU1 GPU0 GPU1
		t.Fatalf("got %d traces, want 4", len(traces))
	}
	var b strings.Builder
	if err := WritePowerTrace(&b, traces); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.HasPrefix(out, "device,time_s,power_W\n") {
		t.Errorf("bad header: %q", out[:40])
	}
	for _, dev := range []string{"CPU0", "CPU1", "GPU0", "GPU1"} {
		if !strings.Contains(out, dev) {
			t.Errorf("trace CSV missing %s", dev)
		}
	}
}
