package dyncap

import (
	"testing"

	"repro/internal/platform"
	"repro/internal/prec"
	"repro/internal/starpu"
	"repro/internal/units"
)

func TestConfigValidation(t *testing.T) {
	p, err := platform.New(platform.FourA100Spec())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(p, Config{Interval: 0, InitialStep: 10, MinStep: 1}); err == nil {
		t.Error("zero interval accepted")
	}
	if _, err := New(p, Config{Interval: 1, InitialStep: 0, MinStep: 1}); err == nil {
		t.Error("zero step accepted")
	}
	if _, err := New(p, DefaultConfig()); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

func TestControllerStartsAtDefault(t *testing.T) {
	p, err := New2GPU(t)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(p, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i, cap := range c.Caps() {
		if cap != p.GPUArch.TDP {
			t.Errorf("GPU %d initial cap = %v, want TDP", i, cap)
		}
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	// Caps actually applied through NVML.
	h, _ := p.NVML.DeviceGetHandleByIndex(0)
	lim, _ := h.GetPowerManagementLimit()
	if lim != uint32(float64(p.GPUArch.TDP)*1000) {
		t.Errorf("applied limit = %d mW", lim)
	}
}

func TestControllerStopsWhenDone(t *testing.T) {
	p, err := New2GPU(t)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(p, Config{Interval: 0.1, InitialStep: 16, MinStep: 4})
	if err != nil {
		t.Fatal(err)
	}
	done := false
	c.Done = func() bool { return done }
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	// Let a few ticks fire, then flip Done; the engine must drain.
	p.Engine().At(0.35, func() { done = true })
	p.Engine().Run()
	if c.Ticks() != 3 {
		t.Errorf("ticks = %d, want 3 (0.1, 0.2, 0.3)", c.Ticks())
	}
}

func TestControllerHoldsWithoutSignal(t *testing.T) {
	// With no GPU work at all, caps must not move (no dJ/dW signal).
	p, err := New2GPU(t)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(p, Config{Interval: 0.1, InitialStep: 16, MinStep: 4})
	if err != nil {
		t.Fatal(err)
	}
	ticks := 0
	c.Done = func() bool { ticks++; return ticks > 5 }
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	p.Engine().Run()
	for i, cap := range c.Caps() {
		if cap != p.GPUArch.TDP {
			t.Errorf("GPU %d cap moved to %v with no load", i, cap)
		}
	}
}

func TestCapsStayInDriverWindow(t *testing.T) {
	p, err := New2GPU(t)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(p, Config{Interval: 0.1, InitialStep: 500, MinStep: 4, StartCap: p.GPUArch.TDP})
	if err != nil {
		t.Fatal(err)
	}
	// Feed the controller synthetic "always better" signals by running
	// fake work: directly exercise tick clamping through Start + load.
	task := fakeTask()
	eng := p.Engine()
	for i := 0; i < 8; i++ {
		at := units.Seconds(float64(i) * 0.1)
		eng.At(at, func() { p.OnTaskStart(0, task) })
		eng.At(at+0.05, func() { p.OnTaskEnd(0, task) })
	}
	n := 0
	c.Done = func() bool { n++; return n > 8 }
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	for i, cap := range c.Caps() {
		if cap < p.GPUArch.MinPower || cap > p.GPUArch.TDP {
			t.Errorf("GPU %d cap %v outside driver window", i, cap)
		}
	}
}

func TestHistoryRecordsCapMoves(t *testing.T) {
	p, err := New2GPU(t)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(p, Config{Interval: 0.1, InitialStep: 32, MinStep: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Keep GPU 0 busy so the controller has an efficiency signal to act on.
	task := fakeTask()
	eng := p.Engine()
	for i := 0; i < 10; i++ {
		at := units.Seconds(float64(i) * 0.1)
		eng.At(at, func() { p.OnTaskStart(0, task) })
		eng.At(at+0.08, func() { p.OnTaskEnd(0, task) })
	}
	n := 0
	c.Done = func() bool { n++; return n > 10 }
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	eng.Run()

	hist := c.History()
	if len(hist) == 0 {
		t.Fatal("no cap moves recorded despite steady GPU load")
	}
	var lastT units.Seconds
	for i, ch := range hist {
		if ch.T < lastT {
			t.Errorf("move %d out of time order: %v after %v", i, ch.T, lastT)
		}
		lastT = ch.T
		if ch.Old == ch.New {
			t.Errorf("move %d records no change (%v)", i, ch.Old)
		}
		if ch.New < p.GPUArch.MinPower || ch.New > p.GPUArch.TDP {
			t.Errorf("move %d cap %v outside driver window", i, ch.New)
		}
	}
	// The final move per GPU must agree with the Caps() snapshot.
	final := map[int]units.Watts{}
	for _, ch := range hist {
		final[ch.GPU] = ch.New
	}
	for gpu, cap := range final {
		if got := c.Caps()[gpu]; got != cap {
			t.Errorf("GPU %d: last history move %v != Caps() %v", gpu, cap, got)
		}
	}
}

// New2GPU builds a small platform for controller tests.
func New2GPU(t *testing.T) (*platform.Platform, error) {
	t.Helper()
	return platform.New(platform.FourA100Spec())
}

// fakeTask is a GEMM-sized task used to exercise the power meters.
func fakeTask() *starpu.Task {
	return &starpu.Task{
		Codelet: &starpu.Codelet{Name: "dgemm", Precision: prec.Double, CanCUDA: true},
		Work:    3.8e11,
	}
}
