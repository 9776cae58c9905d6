// Package dyncap implements an online per-GPU power-cap controller — a
// DEPO-style tuner and the paper's stated future work ("consider
// dynamic power capping and its interaction with scheduling
// decisions").
//
// Every control interval the controller reads, per GPU, the energy and
// useful work completed since the last tick, computes the achieved
// flop/J, and hill-climbs the device's cap: keep moving while
// efficiency improves, reverse and shrink the step when it degrades.
// Caps are applied through NVML, so the runtime's performance models
// re-key to the new power classes and the scheduler adapts exactly as
// it does for static caps.
package dyncap

import (
	"errors"
	"fmt"

	"repro/internal/nvml"
	"repro/internal/platform"
	"repro/internal/units"
)

// Config tunes the controller.
type Config struct {
	// Interval is the virtual time between control decisions.
	Interval units.Seconds
	// InitialStep is the first cap adjustment; it halves on every
	// direction reversal, down to MinStep.
	InitialStep units.Watts
	// MinStep stops the search once reached.
	MinStep units.Watts
	// StartCap is the initial cap per GPU (0 = TDP).
	StartCap units.Watts
}

// DefaultConfig is a reasonable controller for GEMM-scale runs: decide
// every half second of virtual time, start with 32 W moves.
func DefaultConfig() Config {
	return Config{Interval: 0.5, InitialStep: 32, MinStep: 4}
}

// gpuState is the per-device hill-climbing state.
type gpuState struct {
	cap      units.Watts
	step     units.Watts
	dir      float64 // -1 capping down, +1 easing up
	lastEff  float64
	lastWork units.Flops
	lastJ    units.Joules
	disabled bool // board fell off the bus; never touched again
}

// CapChange is one recorded controller move: at virtual time T, GPU's
// cap went from Old to New Watts.
type CapChange struct {
	T   units.Seconds
	GPU int
	Old units.Watts
	New units.Watts
}

// Controller drives one platform's GPU caps.
type Controller struct {
	plat *platform.Platform
	cfg  Config
	gpus []gpuState
	// Done tells the controller to stop rescheduling itself; the
	// experiment driver wires it to the runtime's pending-task count.
	Done func() bool
	// Evict, when set, fires when the platform's cap-write circuit
	// breaker trips on a GPU the controller was driving (the board is
	// already marked dead by then).  It is called from tick — an engine
	// event, not an observer callback — so it may legally call back into
	// the runtime, e.g. to evict the board's worker.
	Evict func(gpu int)

	ticks   int
	history []CapChange
}

// New builds a controller over the platform's GPUs.
func New(plat *platform.Platform, cfg Config) (*Controller, error) {
	if cfg.Interval <= 0 {
		return nil, fmt.Errorf("dyncap: non-positive interval %v", cfg.Interval)
	}
	if cfg.InitialStep <= 0 || cfg.MinStep <= 0 {
		return nil, fmt.Errorf("dyncap: steps must be positive")
	}
	c := &Controller{plat: plat, cfg: cfg}
	arch := plat.GPUArch
	start := cfg.StartCap
	if start == 0 {
		start = arch.TDP
	}
	for range plat.GPUs() {
		c.gpus = append(c.gpus, gpuState{cap: start, step: cfg.InitialStep, dir: -1})
	}
	return c, nil
}

// Ticks reports how many control decisions have fired.
func (c *Controller) Ticks() int { return c.ticks }

// History reports every cap move the controller applied, in virtual-time
// order (the final Caps() snapshot is the last move per GPU).
func (c *Controller) History() []CapChange {
	return append([]CapChange(nil), c.history...)
}

// Caps reports the current cap per GPU.
func (c *Controller) Caps() []units.Watts {
	out := make([]units.Watts, len(c.gpus))
	for i, g := range c.gpus {
		out[i] = g.cap
	}
	return out
}

// Start applies the initial caps and schedules the first tick on the
// platform's virtual clock.  Call before the runtime's Run.
func (c *Controller) Start() error {
	caps := make([]units.Watts, len(c.gpus))
	for i := range c.gpus {
		caps[i] = c.gpus[i].cap
	}
	if err := c.plat.SetGPUCaps(caps); err != nil {
		return err
	}
	c.snapshot()
	c.plat.Engine().After(c.cfg.Interval, c.tick)
	return nil
}

// snapshot records the per-GPU counters a tick will difference against.
func (c *Controller) snapshot() {
	for i := range c.gpus {
		c.gpus[i].lastWork = c.plat.GPUWorkDone(i)
		c.gpus[i].lastJ = c.plat.DeviceEnergy()[fmt.Sprintf("GPU%d", i)]
	}
}

// tick is one control decision.
func (c *Controller) tick() {
	if c.Done != nil && c.Done() {
		return
	}
	c.ticks++
	energy := c.plat.DeviceEnergy()
	for i := range c.gpus {
		g := &c.gpus[i]
		if g.disabled {
			continue
		}
		dW := c.plat.GPUWorkDone(i) - g.lastWork
		dJ := energy[fmt.Sprintf("GPU%d", i)] - g.lastJ
		if dJ <= 0 || dW <= 0 {
			continue // idle interval: no signal, hold the cap
		}
		eff := float64(dW) / float64(dJ)
		// Tentative climb: committed to g only once the cap actually
		// lands on the device, so a failed write skips the decision
		// instead of hill-climbing on a cap that was never applied.
		dir, step := g.dir, g.step
		if g.lastEff > 0 && eff < g.lastEff {
			// Efficiency got worse: reverse and refine.
			dir = -dir
			step /= 2
			if step < c.cfg.MinStep {
				step = c.cfg.MinStep
			}
		}
		arch := c.plat.GPUArch
		next := g.cap + units.Watts(dir)*step
		next = units.Watts(units.Clamp(float64(next), float64(arch.MinPower), float64(arch.TDP)))
		if next != g.cap {
			h, ret := c.plat.NVML.DeviceGetHandleByIndex(i)
			err := ret.Error()
			if err == nil {
				err = h.SetPowerManagementLimit(uint32(float64(next) * 1000)).Error()
			}
			if errors.Is(err, nvml.ErrNotFound) {
				g.disabled = true // board fell off the bus: stop driving it
				continue
			}
			if err != nil {
				// Transient failure: re-decide next tick.  The breaker
				// turns "skip every tick forever" into a bounded decision:
				// enough consecutive failures and the board is declared
				// dead, its worker evicted, and the run continues degraded
				// on the survivors.
				if c.plat.NoteCapWriteFailure(i) {
					g.disabled = true
					if c.Evict != nil {
						c.Evict(i)
					}
				}
				continue
			}
			c.plat.NoteCapWriteSuccess(i)
			// Verify-after-set: adopt the value the driver actually kept
			// (it may have clamped or drifted the request) as the new
			// climbing position.
			if got, vret := h.GetPowerManagementLimit(); vret == nvml.SUCCESS {
				next = units.Watts(float64(got) / 1000)
			}
			if next != g.cap {
				c.history = append(c.history, CapChange{T: c.plat.Engine().Now(), GPU: i, Old: g.cap, New: next})
				g.cap = next
			}
		}
		g.dir, g.step, g.lastEff = dir, step, eff
	}
	c.snapshot()
	c.plat.Engine().After(c.cfg.Interval, c.tick)
}
