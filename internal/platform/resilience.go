// Resilience: the verify-after-set cap applicator with bounded retry and
// virtual-time exponential backoff, plus the degraded-hardware surface
// (thermal throttles, dead boards, surviving-plan notation) the fault
// injector drives.
package platform

import (
	"fmt"
	"strings"

	"repro/internal/nvml"
	"repro/internal/starpu"
	"repro/internal/units"
)

// The verified cap applicator retries transient driver failures
// (nvml.ErrUnknown, the EBUSY-style contention) up to capMaxAttempts
// tries per device, first included, with exponential backoff in virtual
// time starting at capBackoff; anything else fails immediately.
const (
	capMaxAttempts               = 5
	capBackoff     units.Seconds = 2e-3
)

// CapApplyStats accumulates what applying caps took over the platform's
// lifetime — the fault/retry summary capbench prints per cell.
type CapApplyStats struct {
	// Retries counts extra set attempts beyond the first, over all
	// devices and calls.
	Retries int
	// Clamped counts verified reads that differed from the request
	// (driver clamping or drift); the device's actual value wins.
	Clamped int
}

// CapStats reports the cumulative applicator statistics.
func (p *Platform) CapStats() CapApplyStats { return p.capStats }

// CapFault is one entry of the resilience layer's record: at virtual
// time T, a cap write on GPU exhausted its retry budget (Err holds the
// error text) or, with Trip set, the board's breaker tripped.
type CapFault struct {
	GPU  int
	T    units.Seconds
	Trip bool
	Err  string
}

// CapFaults lists the exhausted cap writes and breaker trips over the
// platform's lifetime, in the order they happened.  The slice is the
// platform's own; callers must not modify it.
func (p *Platform) CapFaults() []CapFault { return p.capFaults }

// verifiedApply is the shared verify-after-set applicator core: one
// set/read-back cycle under the retry policy above.  set reports
// whether its failure is transient (worth retrying); verify reports
// whether the read-back matches the request — a mismatch means the
// driver clamped or drifted the value, which is counted and adopted
// rather than fought (the configured value on the device is what worker
// classes and power draw already key off).  Backoff advances the engine
// clock, so the applicator must not run inside a live simulation loop —
// mid-run controllers (dyncap) use a single non-blocking attempt and
// skip their tick instead.
func (p *Platform) verifiedApply(set func() (transient bool, err error), verify func() bool) error {
	backoff := capBackoff
	var lastErr error
	for attempt := 0; attempt < capMaxAttempts; attempt++ {
		if attempt > 0 {
			p.capStats.Retries++
			p.engine.RunUntil(p.engine.Now() + backoff)
			backoff *= 2
		}
		transient, err := set()
		if err != nil {
			if transient {
				lastErr = err
				continue
			}
			return err
		}
		if !verify() {
			p.capStats.Clamped++
		}
		return nil
	}
	return fmt.Errorf("gave up after %d attempts: %w", capMaxAttempts, lastErr)
}

// applyGPUCap routes one board's cap through the verified applicator,
// guarded by the board's circuit breaker: an open breaker short-circuits
// the write (the board has already been declared dead), and the write
// that trips it converts a hard failure into a degraded continuation.
func (p *Platform) applyGPUCap(g int, cap units.Watts) error {
	if p.boards[g].breakerOpen {
		return nil
	}
	h, ret := p.NVML.DeviceGetHandleByIndex(g)
	if err := ret.Error(); err != nil {
		return err
	}
	want := uint32(float64(cap) * 1000)
	if cap == 0 {
		want = uint32(float64(p.GPUArch.TDP) * 1000)
	}
	err := p.verifiedApply(
		func() (bool, error) {
			ret := h.SetPowerManagementLimit(uint32(float64(cap) * 1000))
			return ret.Transient(), ret.Error()
		},
		func() bool {
			got, vret := h.GetPowerManagementLimit()
			return vret.Error() == nil && got == want
		},
	)
	if err != nil {
		p.capFaults = append(p.capFaults, CapFault{GPU: g, T: p.engine.Now(), Err: err.Error()})
		if p.NoteCapWriteFailure(g) {
			return nil // breaker tripped: run degrades instead of failing
		}
		return fmt.Errorf("platform: GPU %d: cap %s rejected: %w", g, capLabel(cap, p.GPUArch.TDP), err)
	}
	p.NoteCapWriteSuccess(g)
	return nil
}

// capLabel words a cap request for an error message.  Cap 0 requests
// the default limit, so it is named by the TDP it stands for.
func capLabel(cap, tdp units.Watts) string {
	if cap == 0 {
		return tdp.String() + " (default TDP)"
	}
	return cap.String()
}

// ---- cap-write circuit breaker ----

// DefaultBreakerThreshold is the consecutive exhausted-write count that
// trips a board's cap-write breaker.  Each count is itself a fully
// exhausted applicator call (capMaxAttempts set/verify cycles) or a dyncap
// single-shot failure, so the default demands persistent, not flaky,
// misbehaviour before declaring a board dead.
const DefaultBreakerThreshold = 3

// SetCapBreaker overrides the breaker threshold: n > 0 trips after n
// consecutive exhausted cap writes on one board, n < 0 disables the
// breaker, n == 0 keeps DefaultBreakerThreshold.
func (p *Platform) SetCapBreaker(n int) { p.breakerThreshold = n }

func (p *Platform) breakerLimit() int {
	switch {
	case p.breakerThreshold < 0:
		return 0
	case p.breakerThreshold == 0:
		return DefaultBreakerThreshold
	}
	return p.breakerThreshold
}

// BreakerOpen reports whether board g's cap-write breaker has tripped.
func (p *Platform) BreakerOpen(g int) bool { return p.boards[g].breakerOpen }

// BreakerTrips lists the boards whose breaker tripped, ascending.
func (p *Platform) BreakerTrips() []int {
	var out []int
	for g := range p.boards {
		if p.boards[g].breakerOpen {
			out = append(out, g)
		}
	}
	return out
}

// NoteCapWriteFailure records one exhausted cap write on board g and
// reports whether it tripped the breaker.  Tripping declares the board
// dead (exactly like a bus dropout): its worker stops being eligible,
// PlanString shows "_", and the run continues on the survivors through
// the DegradedRun path instead of retrying a broken board forever.
// Mid-run controllers (dyncap) call this for their single-shot write
// failures; the verified applicator calls it on retry exhaustion.
func (p *Platform) NoteCapWriteFailure(g int) bool {
	limit := p.breakerLimit()
	b := &p.boards[g]
	if limit == 0 || b.breakerOpen {
		return false
	}
	b.breakerFails++
	if b.breakerFails < limit {
		return false
	}
	b.breakerOpen = true
	p.gpus[g].MarkDead()
	p.capFaults = append(p.capFaults, CapFault{GPU: g, T: p.engine.Now(), Trip: true})
	return true
}

// NoteCapWriteSuccess resets board g's consecutive-failure count: only
// uninterrupted failure runs trip the breaker.
func (p *Platform) NoteCapWriteSuccess(g int) {
	if g >= 0 && g < len(p.boards) {
		p.boards[g].breakerFails = 0
	}
}

// ---- degraded hardware ----

// ThrottleGPU starts a thermal-throttle window on board g: its
// effective limit (and so its worker class, DVFS point and L/B/H level)
// degrades until ClearGPUThrottle.
func (p *Platform) ThrottleGPU(g int, limit units.Watts) { p.gpus[g].SetThrottle(limit) }

// ClearGPUThrottle ends board g's thermal-throttle window.
func (p *Platform) ClearGPUThrottle(g int) { p.gpus[g].ClearThrottle() }

// KillGPU drops board g off the bus, irreversibly: capping calls fail
// with ERROR_NOT_FOUND and its CUDA worker stops being eligible for
// work.  The board is modelled as hung-but-powered — its meter keeps
// integrating idle draw and its energy counters stay readable — so
// whole-node energy accounting still closes (see DESIGN §11).
func (p *Platform) KillGPU(g int) { p.gpus[g].MarkDead() }

// GPUAlive reports whether board g still answers.
func (p *Platform) GPUAlive(g int) bool { return p.gpus[g].Alive() }

// PlanString maps every board onto the paper's level notation, with "_"
// for dead boards: an HHBB machine that lost GPU 3 reads "HHB_" — the
// surviving plan a DegradedRun result carries.
func (p *Platform) PlanString() string {
	var b strings.Builder
	for g := range p.gpus {
		b.WriteString(p.GPULevel(g))
	}
	return b.String()
}

// OnTaskAbort lowers the meters by exactly what OnTaskStart added,
// like OnTaskEnd, but credits no completed flops to the aborted
// attempt — the dynamic capping controller must not reward work that
// was thrown away.
func (p *Platform) OnTaskAbort(i int, t *starpu.Task) { p.removeTaskPower(i) }

var _ starpu.TaskAborter = (*Platform)(nil)

// InstallCapFaults installs (or clears, with nil) the NVML-level cap
// write interceptor the fault injector uses.
func (p *Platform) InstallCapFaults(policy nvml.CapFaultPolicy) {
	p.NVML.SetCapFaultPolicy(policy)
}
