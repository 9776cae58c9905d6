package core

import (
	"testing"

	"repro/internal/dyncap"
	"repro/internal/faults"
	"repro/internal/platform"
	"repro/internal/powercap"
	"repro/internal/prec"
)

func TestRunDynamicImprovesOnDefault(t *testing.T) {
	// A longer run gives the controller room to converge: 12 tiles.
	wl := Workload{Op: GEMM, N: 5760 * 12, NB: 5760, Precision: prec.Double}
	cfg := Config{Spec: platform.FourA100Spec(), Workload: wl, BestFrac: 0.54}

	base, err := Run(Config{Spec: cfg.Spec, Workload: wl, BestFrac: 0.54,
		Plan: powercap.MustParsePlan("HHHH")})
	if err != nil {
		t.Fatal(err)
	}
	dyn, ctl, err := RunDynamic(cfg, dyncap.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if ctl.Ticks() == 0 {
		t.Fatal("controller never ticked")
	}
	if dyn.Plan != "dynamic" {
		t.Errorf("plan label = %q", dyn.Plan)
	}
	// The controller must have moved the caps off TDP...
	moved := false
	for _, cap := range ctl.Caps() {
		if cap != cfg.Spec.GPUArch.TDP {
			moved = true
		}
	}
	if !moved {
		t.Error("controller never adjusted any cap")
	}
	// ...and improved energy efficiency over the static default.
	d := Compare(base, dyn)
	if d.EffGainPct <= 0 {
		t.Errorf("dynamic capping efficiency gain = %+.1f%%, want positive", d.EffGainPct)
	}
	t.Logf("dynamic vs HHHH: perf %+.1f%%, energy %+.1f%%, eff %+.1f%%, final caps %v",
		d.PerfPct, d.EnergyPct, d.EffGainPct, ctl.Caps())
}

func TestRunDynamicRejectsStaticPlan(t *testing.T) {
	cfg := smallGemm()
	cfg.Plan = powercap.MustParsePlan("HHHH")
	if _, _, err := RunDynamic(cfg, dyncap.DefaultConfig()); err == nil {
		t.Error("static plan accepted by RunDynamic")
	}
}

// TestRunDynamicHonoursConfig checks that a dynamic run goes through the
// same protocol as Run: the span tracer and the fault injector arm its
// measured pass, and the trace reconciles against the result's own
// per-device counters.
func TestRunDynamicHonoursConfig(t *testing.T) {
	cfg := smallGemm()
	cfg.Trace = true
	res, _, err := RunDynamic(cfg, dyncap.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil {
		t.Fatal("Trace: true returned no trace")
	}
	if len(res.Trace.Devices) != len(res.Device) {
		t.Fatalf("trace reconciles %d devices, result has %d", len(res.Trace.Devices), len(res.Device))
	}
	for _, d := range res.Trace.Devices {
		if d.MeasuredJ != res.Device[d.Device] {
			t.Errorf("%s: trace measured %v, result %v", d.Device, d.MeasuredJ, res.Device[d.Device])
		}
	}

	cfg = smallGemm()
	if cfg.Faults, err = faults.ParseSpec("taskfail=0.05"); err != nil {
		t.Fatal(err)
	}
	res, _, err = RunDynamic(cfg, dyncap.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults == nil || res.Faults.Spec != cfg.Faults.String() {
		t.Fatalf("fault report = %+v, want one for %s", res.Faults, cfg.Faults)
	}
	if res.Plan != "dynamic" {
		t.Errorf("plan label = %q", res.Plan)
	}
}
