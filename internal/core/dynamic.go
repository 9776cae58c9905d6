package core

import (
	"fmt"

	"repro/internal/dyncap"
	"repro/internal/platform"
	"repro/internal/starpu"
)

// RunDynamic executes a workload with the online cap controller instead
// of a static plan — the paper's future-work scenario.  It is Run with
// the controller installed on the measured pass: the caps start at the
// default limit, calibration runs there, and the controller hill-climbs
// each GPU's cap toward the efficiency optimum while the application
// runs (its cap moves re-key the models, so the scheduler re-learns
// online).  The result's plan reads "dynamic".
func RunDynamic(cfg Config, dyn dyncap.Config) (*Result, *dyncap.Controller, error) {
	if cfg.Plan != nil {
		return nil, nil, fmt.Errorf("core: RunDynamic owns the caps; do not pass a static plan")
	}
	in, err := run(cfg, &dyn, false, new(starpu.Arena))
	if err != nil {
		return nil, nil, err
	}
	return in.Result, in.ctl, nil
}

// startController installs and starts the online cap controller on the
// measured runtime, after Submit and the telemetry Attach, right before
// the measured pass.
func startController(p *platform.Platform, rt *starpu.Runtime, dyn dyncap.Config) (*dyncap.Controller, error) {
	ctl, err := dyncap.New(p, dyn)
	if err != nil {
		return nil, err
	}
	ctl.Done = func() bool { return rt.Pending() == 0 }
	// A breaker trip mid-run leaves a dead board with live queue state;
	// evicting its worker requeues that work onto survivors.  The seam
	// fires from the controller's tick, an engine event, where calling
	// back into the runtime is legal.
	ctl.Evict = func(gpu int) {
		for w := 0; w < p.NumWorkers(); w++ {
			if p.WorkerGPU(w) == gpu {
				rt.EvictWorker(w, "cap-breaker")
			}
		}
	}
	return ctl, ctl.Start()
}
