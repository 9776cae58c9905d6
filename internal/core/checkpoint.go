// Checkpoint support for the sweep executor: a stable per-cell identity
// key.  With the result codec (codec.go), which round-trips every field
// a Result reaches bit-for-bit, it lets RunCells skip a journalled cell
// on resume and hand back a Result indistinguishable from re-running it.
package core

import (
	"fmt"
	"sort"
)

// CheckpointKey is the stable identity of one cell in a checkpoint
// journal: every Config field that changes the simulation's outcome is
// folded in, and nothing else.  Telemetry and pool shape are excluded
// (they do not affect the Result), as is Model — pre-trained-model
// cells are not journalled at all (the model is process state a resume
// cannot reconstruct).
func (c Config) CheckpointKey() string { return c.identityKey(true) }

// GroupKey is the cell's identity with the seed stripped: the grid
// coordinate the aggregation tier merges over, so repeated seeds or
// measurements of one (platform, workload, plan, ...) point fold into
// one efficiency-surface group.  Byte-compatible with CheckpointKey
// minus its "|seed=N" segment.
func (c Config) GroupKey() string { return c.identityKey(false) }

// identityKey renders the cell identity, with or without the seed
// segment.
func (c Config) identityKey(withSeed bool) string {
	plan := "H*"
	if c.Plan != nil {
		plan = c.Plan.String()
	}
	sched := c.Scheduler
	if sched == "" {
		sched = "dmdas"
	}
	key := fmt.Sprintf("%s|%s|%s|%.4f|%s", c.Spec.Name, c.Workload, plan, c.BestFrac, sched)
	if withSeed {
		key += fmt.Sprintf("|seed=%d", c.Seed)
	}
	if len(c.CPUCaps) > 0 {
		sockets := make([]int, 0, len(c.CPUCaps))
		for s := range c.CPUCaps {
			sockets = append(sockets, s)
		}
		sort.Ints(sockets)
		for _, s := range sockets {
			key += fmt.Sprintf("|cpu%d=%.1fW", s, float64(c.CPUCaps[s]))
		}
	}
	if c.SkipCalibration {
		key += "|nocal"
	}
	if c.StaleModels {
		key += "|stale"
	}
	if c.Trace {
		key += "|trace"
	}
	if !c.Faults.Zero() {
		key += "|faults=" + c.Faults.String()
	}
	if c.CapBreaker != 0 {
		key += fmt.Sprintf("|breaker=%d", c.CapBreaker)
	}
	return key
}

// checkpointable reports whether a cell's result can be journalled and
// restored: pre-trained models are process state the journal cannot
// carry, so those cells always re-run.
func (c Config) checkpointable() bool { return c.Model == nil }
