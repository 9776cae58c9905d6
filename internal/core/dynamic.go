package core

import (
	"fmt"

	"repro/internal/dyncap"
	"repro/internal/perfmodel"
	"repro/internal/platform"
	"repro/internal/starpu"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/units"
)

// RunDynamic executes a workload with the online cap controller instead
// of a static plan — the paper's future-work scenario.  The controller
// starts at the default limit and hill-climbs each GPU's cap toward the
// efficiency optimum while the application runs.
func RunDynamic(cfg Config, dyn dyncap.Config) (*Result, *dyncap.Controller, error) {
	if cfg.Plan != nil {
		return nil, nil, fmt.Errorf("core: RunDynamic owns the caps; do not pass a static plan")
	}
	p, err := platform.New(cfg.Spec)
	if err != nil {
		return nil, nil, err
	}
	p.SetCapBreaker(cfg.CapBreaker)
	for socket, cap := range cfg.CPUCaps {
		if err := p.SetCPUCap(socket, cap); err != nil {
			return nil, nil, err
		}
	}
	model := perfmodel.NewHistory()
	if cfg.Telemetry != nil {
		cfg.Telemetry.InstallModelHook(model)
	}
	sched := cfg.Scheduler
	if sched == "" {
		sched = "dmdas"
	}

	// Calibrate at the default power state; the controller's cap moves
	// re-key the models and the scheduler re-learns online, which is
	// exactly the interaction the experiment studies.
	calRT, err := starpu.New(p, starpu.Config{Scheduler: "calibrate", Model: model, Seed: cfg.Seed})
	if err != nil {
		return nil, nil, err
	}
	if err := Submit(calRT, CalibrationWorkload(cfg.Workload)); err != nil {
		return nil, nil, err
	}
	if _, err := calRT.Run(); err != nil {
		return nil, nil, err
	}

	region, err := p.RAPL.Start()
	if err != nil {
		return nil, nil, err
	}
	gpuStart, err := readGPUEnergies(p)
	if err != nil {
		return nil, nil, err
	}

	var scope *telemetry.RunScope
	rtCfg := starpu.Config{Scheduler: sched, Model: model, Seed: cfg.Seed}
	if cfg.Telemetry != nil {
		scope = cfg.Telemetry.NewRunScope()
		rtCfg.Observer = scope
	}
	rt, err := starpu.New(p, rtCfg)
	if err != nil {
		return nil, nil, err
	}
	if err := Submit(rt, cfg.Workload); err != nil {
		return nil, nil, err
	}

	ctl, err := dyncap.New(p, dyn)
	if err != nil {
		return nil, nil, err
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
	if scope != nil {
		// Sampler first so the controller's cap moves land in its event
		// series from the very first tick.
		if _, err := scope.Attach(p, rt, telemetry.SamplerConfig{}); err != nil {
			return nil, nil, err
		}
		scope.InstallDyncapHooks(ctl)
	}
	if err := ctl.Start(); err != nil {
		return nil, nil, err
	}

	if _, err := rt.Run(); err != nil {
		return nil, nil, err
	}

	cpuJoules, err := region.Stop()
	if err != nil {
		return nil, nil, err
	}
	gpuEnd, err := readGPUEnergies(p)
	if err != nil {
		return nil, nil, err
	}

	stats := trace.Collect(rt)
	res := &Result{
		Plan:     "dynamic",
		Workload: cfg.Workload,
		Makespan: stats.Makespan, // excludes the trailing controller tick
		Device:   make(map[string]units.Joules),
		Stats:    stats,
	}
	for i, j := range cpuJoules {
		res.Device[fmt.Sprintf("CPU%d", i)] = j
		res.Energy += j
	}
	for i := range gpuEnd {
		j := units.Joules(float64(gpuEnd[i]-gpuStart[i]) / 1000)
		res.Device[fmt.Sprintf("GPU%d", i)] = j
		res.Energy += j
	}
	flops := cfg.Workload.Op.Flops(cfg.Workload.N)
	res.Rate = units.Rate(flops, res.Makespan)
	if res.Energy > 0 {
		res.Efficiency = float64(flops) / float64(res.Energy) / units.Giga
	}
	if trips := p.BreakerTrips(); len(trips) > 0 {
		res.Degraded = &DegradedRun{
			Plan:      p.PlanString(),
			Evictions: append([]starpu.Eviction(nil), rt.Evictions()...),
		}
		if cfg.Telemetry != nil {
			for _, g := range trips {
				cfg.Telemetry.ObserveBreakerTrip(g)
			}
		}
	}
	return res, ctl, nil
}
