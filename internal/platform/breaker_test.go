package platform

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/nvml"
	"repro/internal/powercap"
	"repro/internal/units"
)

// TestBreakerTripsAfterConsecutiveFailures exercises the counter state
// machine: only an uninterrupted run of exhausted writes trips, a
// success in between resets, and a tripped breaker declares the board
// dead in the surviving-plan notation.
func TestBreakerTripsAfterConsecutiveFailures(t *testing.T) {
	p, err := New(TwoV100Spec())
	if err != nil {
		t.Fatal(err)
	}
	p.SetCapBreaker(3)
	for i := 0; i < 2; i++ {
		if p.NoteCapWriteFailure(0) {
			t.Fatalf("breaker tripped after %d failures, threshold is 3", i+1)
		}
	}
	p.NoteCapWriteSuccess(0) // resets the consecutive count
	for i := 0; i < 2; i++ {
		if p.NoteCapWriteFailure(0) {
			t.Fatalf("breaker tripped %d failures after a reset", i+1)
		}
	}
	if !p.NoteCapWriteFailure(0) {
		t.Fatal("third consecutive failure did not trip the breaker")
	}
	if !p.BreakerOpen(0) || p.GPUAlive(0) {
		t.Errorf("after trip: open=%v alive=%v, want open and dead", p.BreakerOpen(0), p.GPUAlive(0))
	}
	if got := p.BreakerTrips(); len(got) != 1 || got[0] != 0 {
		t.Errorf("BreakerTrips() = %v, want [0]", got)
	}
	if p.NoteCapWriteFailure(0) {
		t.Error("an already-open breaker reported a second trip")
	}
	if p.NoteCapWriteFailure(1) {
		t.Error("board 1 inherited board 0's failures")
	}

	disabled, err := New(TwoV100Spec())
	if err != nil {
		t.Fatal(err)
	}
	disabled.SetCapBreaker(-1)
	for i := 0; i < 10; i++ {
		if disabled.NoteCapWriteFailure(0) {
			t.Fatal("disabled breaker tripped")
		}
	}
}

// deadBoardPolicy fails every power-limit write on one device index with
// a transient code, so the verified applicator retries to exhaustion.
type deadBoardPolicy struct{ index int }

func (p deadBoardPolicy) OnSetPowerLimit(index int, requestedMW uint32) (uint32, nvml.Return) {
	if index == p.index {
		return requestedMW, nvml.ERROR_UNKNOWN
	}
	return requestedMW, nvml.SUCCESS
}

// TestBreakerDegradesCapWrite drives the breaker through the real
// applicator: with GPU 3's writes permanently failing and the threshold
// at 1, applying an HHBB plan must succeed as a degraded continuation —
// three boards capped, the fourth declared dead — and the surviving
// plan reads "HHB_".
func TestBreakerDegradesCapWrite(t *testing.T) {
	spec := FourA100Spec()
	p, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	p.SetCapBreaker(1)
	p.InstallCapFaults(deadBoardPolicy{index: 3})

	caps := powercap.MustParsePlan("HHBB").Caps(spec.GPUArch, 0.56)
	if err := p.SetGPUCaps(caps); err != nil {
		t.Fatalf("degraded cap application failed hard: %v", err)
	}
	if !p.BreakerOpen(3) || p.GPUAlive(3) {
		t.Errorf("GPU 3: open=%v alive=%v, want tripped and dead", p.BreakerOpen(3), p.GPUAlive(3))
	}
	if got := p.PlanString(); got != "HHB_" {
		t.Errorf("PlanString() = %q, want HHB_", got)
	}
	if got := p.BreakerTrips(); len(got) != 1 || got[0] != 3 {
		t.Errorf("BreakerTrips() = %v, want [3]", got)
	}
	// The record holds the exhausted write, then the trip it caused, at
	// the virtual time the retries ran out.
	now := p.Engine().Now()
	want := []CapFault{
		{GPU: 3, T: now, Err: "gave up after 5 attempts: nvml: ERROR_UNKNOWN"},
		{GPU: 3, T: now, Trip: true},
	}
	if got := p.CapFaults(); !reflect.DeepEqual(got, want) {
		t.Errorf("CapFaults() = %+v, want %+v", got, want)
	}
	// The open breaker short-circuits later writes: no error, no retry
	// storm against a board already declared dead.
	before := p.CapStats().Retries
	if err := p.SetGPUCaps(caps); err != nil {
		t.Fatalf("cap write with open breaker failed: %v", err)
	}
	if after := p.CapStats().Retries; after != before {
		t.Errorf("open breaker still retried the dead board: %d extra retries", after-before)
	}
}

// TestDefaultCapErrorNamesTDP: cap 0 requests the default limit (an H
// level), so when that write exhausts its retries the error names the
// TDP it stands for, not a 0 W cap.
func TestDefaultCapErrorNamesTDP(t *testing.T) {
	spec := FourA100Spec()
	p, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	p.SetCapBreaker(-1)
	p.InstallCapFaults(deadBoardPolicy{index: 3})
	err = p.SetGPUCaps(make([]units.Watts, spec.GPUCount))
	if err == nil {
		t.Fatal("exhausted default-limit write on GPU 3 succeeded")
	}
	want := fmt.Sprintf("platform: GPU 3: cap %v (default TDP) rejected: gave up after 5 attempts", spec.GPUArch.TDP)
	if got := err.Error(); !strings.HasPrefix(got, want) || strings.Contains(got, "cap 0.0 W") {
		t.Errorf("error %q, want it to start %q", got, want)
	}
}
