package benchcheck

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/platform"
	"repro/internal/prec"
)

// chaosFleet is a traced, fault-injected 4xA100 HHBB fleet cycling the
// chaos fault mixes, so the codec sees retries, cap faults, throttles
// and boards lost mid-run (degraded plans such as "HHB_").
func chaosFleet() []Cell {
	specs := []faults.Spec{
		{TaskFail: 0.05, Retries: 3},
		{CapFail: 0.2, CapClamp: 0.2},
		{Throttles: 2},
		{Dropouts: 1},
		{CapFail: 0.15, CapClamp: 0.15, Throttles: 1, Dropouts: 1, TaskFail: 0.03, Retries: 3},
	}
	var cells []Cell
	for i := 0; i < 2*len(specs); i++ {
		spec := specs[i%len(specs)]
		cells = append(cells, cell(fmt.Sprintf("chaos-%d", i), platform.FourA100Name, core.GEMM, prec.Double, 4, "HHBB",
			func(c *core.Config) {
				c.Trace = true
				c.Faults = spec
			}))
	}
	return cells
}

// TestResultCodecIdentity: over the corpus and the chaos fleet, a
// result that crosses the codec digests exactly as the in-process one,
// and re-encoding a decoded result reproduces the payload byte for
// byte.
func TestResultCodecIdentity(t *testing.T) {
	cells := append(Corpus(), chaosFleet()...)
	cfgs := make([]core.Config, len(cells))
	for i, c := range cells {
		cfgs[i] = c.Cfg
	}
	results, err := core.RunCells(cfgs, core.ParallelOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	var traced, faulted, degraded int
	for i, res := range results {
		name := cells[i].Name
		payload, err := core.EncodeResult(res)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		back, err := core.DecodeResult(payload)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := Digest(cfgs[i], res)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := Digest(cfgs[i], back); err != nil || got != want {
			t.Errorf("%s: digest after the codec %s, want %s (%v)", name, got, want, err)
		}
		again, err := core.EncodeResult(back)
		if err != nil || !bytes.Equal(again, payload) {
			t.Errorf("%s: re-encoding the decoded result changed the payload (%v)", name, err)
		}
		if res.Trace != nil {
			traced++
		}
		if res.Faults != nil {
			faulted++
		}
		if res.Degraded != nil && strings.Contains(res.Degraded.Plan, "_") {
			degraded++
		}
	}
	if traced == 0 || faulted == 0 || degraded == 0 {
		t.Fatalf("fleet lost its coverage: %d traced, %d faulted, %d degraded result(s)", traced, faulted, degraded)
	}
}
