package starpu

import "repro/internal/units"

// PowerModel is an optional Machine capability: the expected marginal
// power while a task runs on a worker.  It enables the energy-aware
// dmdae policy (the paper's future work: "dynamic scheduling algorithms
// optimizing energy efficiency").
type PowerModel interface {
	// ExecPower reports the draw added to the node while t runs on i.
	ExecPower(i int, t *Task) units.Watts
}

// newDmdae builds dmdas extended with an energy term: workers are
// chosen by
//
//	metric = ECT + penalty*transfer + gamma * E/P_ref
//
// where E is the task's estimated Joules on the worker and P_ref
// normalises Joules into seconds (StarPU's dmda exposes the same knob
// as --sched-gamma).  On a machine without a PowerModel it degenerates
// to dmdas.
func newDmdae() *dmSched {
	return &dmSched{name: "dmdae", dataAware: true, sorted: true, gamma: 1.0, pref: 100}
}
