package gpu

import (
	"fmt"
	"sync/atomic"

	"repro/internal/prec"
	"repro/internal/units"
)

// Device is one GPU board: an architecture plus mutable power-management
// state.  It is safe for concurrent use (the NVML facade may be driven
// from several goroutines).  The power state is an immutable snapshot
// behind an atomic pointer: a reader takes one load, so the cap,
// throttle and effective limit it sees were published together;
// writers replace the snapshot with a compare-and-swap.
type Device struct {
	arch  *Arch
	index int

	state atomic.Pointer[powerState]
}

// powerState is one immutable snapshot of a board's power management.
type powerState struct {
	cap      units.Watts // 0 = uncapped
	throttle units.Watts // 0 = no thermal throttle active
	dead     bool        // board fell off the bus
	// limit is the effective limit the cap and throttle above yield,
	// computed once per write so PowerLimit is a plain load.
	limit units.Watts
}

// NewDevice returns board #index of the given architecture, uncapped.
func NewDevice(arch *Arch, index int) *Device {
	d := &Device{arch: arch, index: index}
	d.state.Store(&powerState{limit: arch.TDP})
	return d
}

// update applies fn to a copy of the current snapshot and publishes it,
// retrying if another writer got in first.
func (d *Device) update(fn func(*powerState)) {
	for {
		old := d.state.Load()
		next := *old
		fn(&next)
		next.limit = next.cap
		if next.limit == 0 {
			next.limit = d.arch.TDP
		}
		if next.throttle > 0 && next.throttle < next.limit {
			next.limit = next.throttle
		}
		if d.state.CompareAndSwap(old, &next) {
			return
		}
	}
}

// Arch reports the device's architecture.
func (d *Device) Arch() *Arch { return d.arch }

// Index reports the board index within its node.
func (d *Device) Index() int { return d.index }

// Name reports "<arch> #<index>".
func (d *Device) Name() string { return fmt.Sprintf("%s #%d", d.arch.Name, d.index) }

// SetPowerLimit applies a static power cap.  A zero cap restores the
// default limit (TDP).  Caps outside the driver window are rejected,
// matching nvidia-smi behaviour.
func (d *Device) SetPowerLimit(cap units.Watts) error {
	if err := d.arch.ValidateCap(cap); err != nil {
		return err
	}
	d.update(func(s *powerState) { s.cap = cap })
	return nil
}

// PowerLimit reports the effective limit: the configured cap (TDP when
// uncapped), further reduced by an active thermal-throttle window.  The
// effective limit is what the DVFS curves, the power draw and the
// worker-class strings all key off, so a throttle window degrades the
// device's power class exactly like a (temporary) deeper cap.
func (d *Device) PowerLimit() units.Watts { return d.state.Load().limit }

// ConfiguredLimit reports the cap as set through the driver, ignoring
// any thermal throttle (what GetEnforcedPowerLimit verifies against).
func (d *Device) ConfiguredLimit() units.Watts {
	if cap := d.state.Load().cap; cap != 0 {
		return cap
	}
	return d.arch.TDP
}

// SetThrottle starts a thermal-throttle window: the effective limit
// drops to min(cap, limit) until ClearThrottle.  Values at or below zero
// clamp to the driver minimum (the board never throttles below it).
func (d *Device) SetThrottle(limit units.Watts) {
	if limit < d.arch.MinPower {
		limit = d.arch.MinPower
	}
	d.update(func(s *powerState) { s.throttle = limit })
}

// ClearThrottle ends the thermal-throttle window.
func (d *Device) ClearThrottle() {
	d.update(func(s *powerState) { s.throttle = 0 })
}

// Throttled reports whether a thermal window is currently active.
func (d *Device) Throttled() bool { return d.state.Load().throttle > 0 }

// MarkDead drops the board off the bus: capping calls fail with
// ERROR_NOT_FOUND from then on.  Irreversible, like the real failure.
func (d *Device) MarkDead() {
	d.update(func(s *powerState) { s.dead = true })
}

// Alive reports whether the board still answers.
func (d *Device) Alive() bool { return !d.state.Load().dead }

// Uncapped reports whether the default limit is active.
func (d *Device) Uncapped() bool {
	cap := d.state.Load().cap
	return cap == 0 || cap == d.arch.TDP
}

// IdlePower reports the draw with no kernel resident.
func (d *Device) IdlePower() units.Watts { return d.arch.IdlePower }

// Operate resolves the DVFS operating point for a kernel of the given
// precision and work under the current cap.  efficiencyFactor (in (0,1])
// derates the GEMM curve for kernels with a lower fraction of peak
// (TRSM, SYRK, panel factorisations).
func (d *Device) Operate(p prec.Precision, work units.Flops, efficiencyFactor float64) OperatingPoint {
	return d.operateAt(d.PowerLimit(), p, work, efficiencyFactor)
}

// operateAt is Operate under an explicit effective limit.
func (d *Device) operateAt(limit units.Watts, p prec.Precision, work units.Flops, efficiencyFactor float64) OperatingPoint {
	curve := d.arch.Curve(p)
	occ := d.arch.Occupancy(work)
	op := curve.Operate(limit, occ)
	if efficiencyFactor > 0 && efficiencyFactor < 1 {
		op.Rate = units.FlopsPerSec(float64(op.Rate) * efficiencyFactor)
	}
	return op
}

// KernelTime reports the duration of one kernel launch (including the
// fixed launch overhead) at the current operating point.
func (d *Device) KernelTime(p prec.Precision, work units.Flops, efficiencyFactor float64) (units.Seconds, OperatingPoint) {
	return d.KernelTimeAt(d.PowerLimit(), p, work, efficiencyFactor)
}

// KernelTimeAt is KernelTime under an explicit effective limit.  It is
// a pure function of its arguments, which is what lets the platform
// memoize it per limit (DESIGN §14).
func (d *Device) KernelTimeAt(limit units.Watts, p prec.Precision, work units.Flops, efficiencyFactor float64) (units.Seconds, OperatingPoint) {
	op := d.operateAt(limit, p, work, efficiencyFactor)
	return d.arch.LaunchOverhead + units.DurationFor(work, op.Rate), op
}
