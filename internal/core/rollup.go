// Rollup construction: the bridge from a cell's (Config, Result) pair
// to the aggregation tier's CellRollup.  The rollup is a pure function
// of the pair — no clocks, no worker identity — so a cell restored from
// the checkpoint journal (whose result codec round-trips the Result
// byte-exactly) rolls up identically to the run that journalled it.
// That is what lets a resumed sweep rebuild the efficiency surface
// without re-running anything.
package core

import (
	"repro/internal/telemetry/agg"
	"repro/internal/units"
)

// BuildRollup rolls one completed cell up into the aggregation tier's
// compact form: grid identity (CheckpointKey / GroupKey), scalar
// outcome, counters, and — when the cell ran with span tracing —
// task-level quantile sketches over duration, queue wait, span energy
// and GPU power.
func BuildRollup(cfg Config, res *Result) agg.CellRollup {
	key, group := cfg.CheckpointKey(), cfg.GroupKey()
	if cfg.Model != nil {
		// Pre-trained-model cells are excluded from the journal, so their
		// identity never carries the distinction; the surface's dedup set
		// still must not collide them with journalled cells.
		key += "|model"
		group += "|model"
	}
	c := agg.CellRollup{
		Key:       key,
		GroupKey:  group,
		Platform:  cfg.Spec.Name,
		Workload:  cfg.Workload.String(),
		Plan:      res.Plan,
		Scheduler: schedName(cfg.Scheduler),
		Seed:      cfg.Seed,

		MakespanS:     float64(res.Makespan),
		EnergyJ:       float64(res.Energy),
		GFlops:        float64(res.Rate) / units.Giga,
		GFlopsPerWatt: res.Efficiency,
		EDP:           float64(res.Energy) * float64(res.Makespan),
		ED2P:          float64(res.Energy) * float64(res.Makespan) * float64(res.Makespan),
	}
	if res.Degraded != nil {
		c.Degraded = true
		c.DegradedPlan = res.Degraded.Plan
	}
	if len(res.Device) > 0 {
		c.DeviceEnergyJ = make(map[string]float64, len(res.Device))
		for dev, j := range res.Device {
			c.DeviceEnergyJ[dev] = float64(j)
		}
	}
	if res.Stats != nil {
		c.Tasks = int64(res.Stats.TotalTasks)
		c.TransferBytes = int64(res.Stats.TransferBytes)
	}
	if res.Faults != nil {
		c.TaskRetries = int64(res.Faults.TaskRetries)
		c.CapRetries = int64(res.Faults.CapRetries)
	}
	if res.Trace != nil && len(res.Trace.Spans) > 0 {
		dur := agg.NewSketch(agg.DefaultAlpha)
		wait := agg.NewSketch(agg.DefaultAlpha)
		energy := agg.NewSketch(agg.DefaultAlpha)
		power := agg.NewSketch(agg.DefaultAlpha)
		for i := range res.Trace.Spans {
			sp := &res.Trace.Spans[i]
			if sp.Aborted {
				c.AbortedSpans++
				continue
			}
			dur.Observe(float64(sp.Duration()))
			wait.Observe(float64(sp.QueueWait()))
			energy.Observe(float64(sp.Energy()))
			if sp.AccelPowerW > 0 {
				power.Observe(float64(sp.AccelPowerW))
			}
		}
		c.Sketches = map[string]*agg.Sketch{
			agg.SketchTaskDuration: dur,
			agg.SketchQueueWait:    wait,
			agg.SketchSpanEnergy:   energy,
			agg.SketchGPUPower:     power,
		}
	}
	return c
}

// schedName normalises the scheduler label the way the identity key
// does (empty means the default dmdas).
func schedName(s string) string {
	if s == "" {
		return "dmdas"
	}
	return s
}
