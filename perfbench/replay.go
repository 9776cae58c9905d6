package main

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/benchcheck"
	"repro/internal/chameleon"
	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/linalg"
	"repro/internal/perfmodel"
	"repro/internal/platform"
	"repro/internal/powercap"
	"repro/internal/prec"
	"repro/internal/spantrace"
	"repro/internal/starpu"
	"repro/internal/telemetry/agg"
	"repro/internal/trace"
	"repro/internal/units"
)

// layerStats accumulates the traced run's per-layer samples.  Times are
// one sample per call; the per-cell means and percentiles are taken when
// the run reports.
type layerStats struct {
	platformSetup, calibration, dagBuild, measured, finalize, analyze []time.Duration
	tasks, measuredAllocs, evictions, taskRetries                     []float64

	encode, decode, rollup, digest []time.Duration
	resultBytes                    []float64
	commit, resumeOpen, restore    []time.Duration
	observe, artifacts             []time.Duration

	// fidelity counts replayed cells and how many disagreed with core.Run.
	replayed, mismatched int
}

// cellSample is what one replayed cell cost, layer by layer, and what it
// produced for the fidelity check.
type cellSample struct {
	platformSetup, calibration, dagBuild, measured time.Duration
	finalize, analyze                              time.Duration // zero without a tracer
	measuredAllocs                                 uint64
	makespan                                       units.Seconds
	tasks, taskRetries, evictions                  int
}

// add folds a sample into the layer statistics.
func (ls *layerStats) add(c cellSample) {
	ls.platformSetup = append(ls.platformSetup, c.platformSetup)
	ls.calibration = append(ls.calibration, c.calibration)
	ls.dagBuild = append(ls.dagBuild, c.dagBuild)
	ls.measured = append(ls.measured, c.measured)
	ls.measuredAllocs = append(ls.measuredAllocs, float64(c.measuredAllocs))
	ls.tasks = append(ls.tasks, float64(c.tasks))
	ls.taskRetries = append(ls.taskRetries, float64(c.taskRetries))
	ls.evictions = append(ls.evictions, float64(c.evictions))
}

// replayCell re-runs core.Run's public call sequence for one cell, with
// a span around each layer: platform.New and the cap writes, the
// calibration pass (starpu.New, the Chameleon DAG, Runtime.Run), the
// measured pass (DAG build, then Runtime.Run bracketed by the energy
// counters), and, with a span tracer attached, spantrace
// Finalize/Analyze.  core.Run attaches a tracer when cfg.Trace is set;
// withTracer attaches one regardless.
func replayCell(rec *recorder, job, parent int, cfg core.Config, withTracer bool) (cellSample, error) {
	var c cellSample
	if cfg.StaleModels || cfg.SkipCalibration || cfg.Model != nil {
		return c, errors.New("replay: stale, cold and pre-trained cells are not replayed")
	}
	if cfg.Plan == nil {
		cfg.Plan = powercap.MustParsePlan(allHigh(cfg.Spec.GPUCount))
	}

	var p *platform.Platform
	var inj *faults.Injector
	id := rec.begin("platform.setup", job, parent)
	err := func() error {
		var err error
		if p, err = platform.New(cfg.Spec); err != nil {
			return err
		}
		p.SetCapBreaker(cfg.CapBreaker)
		if !cfg.Faults.Zero() {
			// The same injector seed core.Run derives from the cell identity.
			seed := core.CellSeed(cfg.Seed, fmt.Sprintf("faults|%s|%s|%s|%s",
				cfg.Spec.Name, cfg.Workload, cfg.Plan, cfg.Faults))
			inj = faults.NewInjector(cfg.Faults, seed)
			inj.BindLimits(cfg.Spec.GPUArch.MinPower, cfg.Spec.GPUArch.TDP)
			p.InstallCapFaults(inj)
		}
		if err := p.SetGPUCaps(cfg.Plan.Caps(cfg.Spec.GPUArch, cfg.BestFrac)); err != nil {
			return err
		}
		for socket, cap := range cfg.CPUCaps {
			if err := p.SetCPUCap(socket, cap); err != nil {
				return err
			}
		}
		return nil
	}()
	c.platformSetup = rec.end(id)
	if err != nil {
		return c, err
	}

	sched := cfg.Scheduler
	if sched == "" {
		sched = "dmdas"
	}
	model := perfmodel.NewHistory()
	id = rec.begin("starpu.calibration", job, parent)
	err = func() error {
		calRT, err := starpu.New(p, starpu.Config{Scheduler: "calibrate", Model: model, Seed: cfg.Seed})
		if err != nil {
			return err
		}
		cal := cfg.Workload
		if nt := (cal.N + cal.NB - 1) / cal.NB; nt > 6 {
			cal.N = cal.NB * 6
		}
		if err := rec.do("chameleon.dag_build", job, id, func(int) error { return submit(calRT, cal) }); err != nil {
			return err
		}
		return rec.do("starpu.run", job, id, func(int) error { _, err := calRT.Run(); return err })
	}()
	c.calibration = rec.end(id)
	if err != nil {
		return c, fmt.Errorf("replay: calibration: %w", err)
	}

	measured := rec.begin("starpu.measured_pass", job, parent)
	region, err := p.RAPL.Start()
	if err != nil {
		return c, err
	}
	gpuStart, err := gpuEnergies(p)
	if err != nil {
		return c, err
	}
	var tracer *spantrace.Tracer
	var observers []starpu.Observer
	if withTracer {
		tracer = spantrace.NewTracer(p)
		observers = append(observers, tracer)
	}
	rtCfg := starpu.Config{Scheduler: sched, Model: model, Seed: cfg.Seed}
	if inj != nil {
		observers = append(observers, inj)
		rtCfg.Faults = inj
	}
	rtCfg.Observer = starpu.CombineObservers(observers...)
	rt, err := starpu.New(p, rtCfg)
	if err != nil {
		return c, err
	}
	if inj != nil {
		inj.Bind(rt, p)
	}
	id = rec.begin("chameleon.dag_build", job, measured)
	err = submit(rt, cfg.Workload)
	c.dagBuild = rec.end(id)
	if err != nil {
		return c, err
	}
	if tracer != nil {
		tracer.Begin(rt)
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	id = rec.begin("starpu.run", job, measured)
	makespan, err := rt.Run()
	c.measured = rec.end(id)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return c, err
	}
	c.measuredAllocs = m1.Mallocs - m0.Mallocs
	c.makespan = makespan

	cpuJoules, err := region.Stop()
	if err != nil {
		return c, err
	}
	gpuEnd, err := gpuEnergies(p)
	if err != nil {
		return c, err
	}
	rec.end(measured)
	c.tasks = trace.Collect(rt).TotalTasks
	for _, t := range rt.Tasks() {
		c.taskRetries += t.Retries
	}
	c.evictions = len(rt.Evictions())
	if tracer == nil {
		return c, nil
	}

	device := make(map[string]units.Joules)
	for i, j := range cpuJoules {
		device[fmt.Sprintf("CPU%d", i)] = j
	}
	for i := range gpuEnd {
		device[fmt.Sprintf("GPU%d", i)] = units.Joules(float64(gpuEnd[i]-gpuStart[i]) / 1000)
	}
	id = rec.begin("spantrace.finalize", job, parent)
	tr := tracer.Finalize(device)
	c.finalize = rec.end(id)
	id = rec.begin("spantrace.analyze", job, parent)
	spantrace.Analyze(tr, 0)
	c.analyze = rec.end(id)
	return c, nil
}

func allHigh(n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = 'H'
	}
	return string(b)
}

// gpuEnergies reads every GPU's cumulative energy counter (mJ) through
// NVML, as core.Run brackets its measured pass.
func gpuEnergies(p *platform.Platform) ([]uint64, error) {
	n, ret := p.NVML.DeviceGetCount()
	if err := ret.Error(); err != nil {
		return nil, err
	}
	out := make([]uint64, n)
	for i := range out {
		h, ret := p.NVML.DeviceGetHandleByIndex(i)
		if err := ret.Error(); err != nil {
			return nil, err
		}
		e, ret := h.GetTotalEnergyConsumption()
		if err := ret.Error(); err != nil {
			return nil, err
		}
		out[i] = e
	}
	return out, nil
}

// submit builds a workload's Chameleon DAG on a runtime, as core.Run
// does: cost-only descriptors, GEMM as C = A·B, POTRF and GEQRF in place.
func submit(rt *starpu.Runtime, w core.Workload) error {
	if w.Precision == prec.Single {
		return submitTyped[float32](rt, w)
	}
	return submitTyped[float64](rt, w)
}

func submitTyped[T linalg.Float](rt *starpu.Runtime, w core.Workload) error {
	a, err := chameleon.NewDesc[T](rt, w.N, w.NB, false)
	if err != nil {
		return err
	}
	switch w.Op {
	case core.POTRF:
		return chameleon.Potrf(rt, a)
	case core.GEQRF:
		_, err := chameleon.Geqrf(rt, a)
		return err
	}
	b, err := chameleon.NewDesc[T](rt, w.N, w.NB, false)
	if err != nil {
		return err
	}
	c, err := chameleon.NewDesc[T](rt, w.N, w.NB, false)
	if err != nil {
		return err
	}
	return chameleon.Gemm[T](rt, 1, a, b, 0, c)
}

// checkReplay counts a replay whose makespan or task count differs, bit
// for bit, from what core.Run produced for the same cell.
func (w *work) checkReplay(cfg core.Config, c cellSample, res *core.Result) {
	w.layers.replayed++
	if res.Stats == nil || c.makespan != res.Makespan || c.tasks != res.Stats.TotalTasks {
		w.layers.mismatched++
		w.fail("replay of %s: makespan %v, %d tasks; core.Run: makespan %v", cfg.CheckpointKey(), c.makespan, c.tasks, res.Makespan)
	}
}

// tracerProbeEvery is how often an untraced cell is replayed a second
// time with a span tracer attached, to price spantrace on workloads that
// do not trace.
const tracerProbeEvery = 8

// replayJob replays every cell of one job against the results core.Run
// produced for it, then prices the result path the same cells take after
// the simulation: codec, rollup and digest per cell, a checkpoint
// journal written, resumed and restored, and the aggregation tier's
// observe and artifact write.  A replay that disagrees with core.Run in
// makespan or task count, or a cell the journal round trip loses, counts
// as mismatched.
func (w *work) replayJob(job int, seed int64, cells []core.Config, results []*core.Result) error {
	ls := &w.layers
	w.replayedJobs++
	root := w.rec.begin("replay", job, -1)
	defer w.rec.end(root)
	payloads := make([][]byte, len(cells))
	for i, cfg := range cells {
		res := results[i]
		cell := w.rec.begin("cell", job, root)
		c, err := replayCell(w.rec, job, cell, cfg, cfg.Trace)
		if err != nil {
			w.rec.end(cell)
			return fmt.Errorf("replay job %d cell %d: %w", job, i, err)
		}
		ls.add(c)
		w.checkReplay(cfg, c, res)
		if cfg.Trace {
			ls.finalize = append(ls.finalize, c.finalize)
			ls.analyze = append(ls.analyze, c.analyze)
		} else if i%tracerProbeEvery == 0 {
			probe := w.rec.begin("tracer_probe", job, cell)
			c, err := replayCell(w.rec, job, probe, cfg, true)
			w.rec.end(probe)
			if err != nil {
				w.rec.end(cell)
				return fmt.Errorf("replay job %d cell %d with a tracer: %w", job, i, err)
			}
			w.checkReplay(cfg, c, res)
			ls.finalize = append(ls.finalize, c.finalize)
			ls.analyze = append(ls.analyze, c.analyze)
		}

		id := w.rec.begin("core.encode", job, cell)
		payloads[i], err = core.EncodeResult(res)
		ls.encode = append(ls.encode, w.rec.end(id))
		if err != nil {
			w.rec.end(cell)
			return err
		}
		ls.resultBytes = append(ls.resultBytes, float64(len(payloads[i])))
		id = w.rec.begin("core.decode", job, cell)
		_, err = core.DecodeResult(payloads[i])
		ls.decode = append(ls.decode, w.rec.end(id))
		if err != nil {
			w.rec.end(cell)
			return err
		}
		id = w.rec.begin("core.rollup", job, cell)
		core.BuildRollup(cfg, res)
		ls.rollup = append(ls.rollup, w.rec.end(id))
		id = w.rec.begin("benchcheck.digest", job, cell)
		_, err = benchcheck.Digest(cfg, res)
		ls.digest = append(ls.digest, w.rec.end(id))
		w.rec.end(cell)
		if err != nil {
			return err
		}
	}

	dir := filepath.Join(w.dir, fmt.Sprintf("replay-%d", job))
	m := ckpt.Manifest{Identity: fmt.Sprintf("perfbench|%s|replay|seed=%d", w.workload, seed), RootSeed: seed}
	journal, err := ckpt.Create(dir, m)
	if err != nil {
		return err
	}
	for i, cfg := range cells {
		id := w.rec.begin("ckpt.commit", job, root)
		err := journal.Commit(ckpt.Record{Key: cfg.CheckpointKey(), Status: ckpt.StatusDone, Payload: payloads[i]})
		ls.commit = append(ls.commit, w.rec.end(id))
		if err != nil {
			journal.Close()
			return err
		}
	}
	if err := journal.Close(); err != nil {
		return err
	}
	id := w.rec.begin("ckpt.resume_open", job, root)
	journal, err = ckpt.Resume(dir, m)
	ls.resumeOpen = append(ls.resumeOpen, w.rec.end(id))
	if err != nil {
		return err
	}
	defer journal.Close()
	for i, cfg := range cells {
		id := w.rec.begin("ckpt.restore", job, root)
		rec, ok := journal.Lookup(cfg.CheckpointKey())
		var res *core.Result
		if ok && rec.Status == ckpt.StatusDone {
			res, err = core.DecodeResult(rec.Payload)
		}
		ls.restore = append(ls.restore, w.rec.end(id))
		if res == nil || err != nil || res.Makespan != results[i].Makespan {
			ls.mismatched++
			w.fail("journal round trip lost %s", cfg.CheckpointKey())
		}
	}

	sink, err := agg.NewJSONLSink(filepath.Join(dir, agg.StreamFile))
	if err != nil {
		return err
	}
	a := agg.New(sink, agg.ExporterConfig{})
	for i, cfg := range cells {
		roll := core.BuildRollup(cfg, results[i])
		id := w.rec.begin("agg.observe", job, root)
		a.ObserveCell(roll)
		ls.observe = append(ls.observe, w.rec.end(id))
	}
	id = w.rec.begin("agg.artifacts", job, root)
	err = a.Close()
	if err == nil {
		err = a.WriteArtifacts(dir)
	}
	ls.artifacts = append(ls.artifacts, w.rec.end(id))
	return err
}
