// Package core orchestrates the paper's experiments: it builds a
// simulated platform, applies a power-cap plan through NVML/RAPL,
// recalibrates the runtime's performance models (the paper's protocol
// after every cap change), runs a task-based operation under the dmdas
// scheduler and measures performance, energy and energy efficiency.
package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/chameleon"
	"repro/internal/dyncap"
	"repro/internal/eventsim"
	"repro/internal/faults"
	"repro/internal/linalg"
	"repro/internal/obs"
	"repro/internal/perfmodel"
	"repro/internal/platform"
	"repro/internal/powercap"
	"repro/internal/prec"
	"repro/internal/spantrace"
	"repro/internal/starpu"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/units"
)

// Operation selects the task-based workload.
type Operation int

// The paper's two operations (§III-C), plus the QR factorisation the
// library also provides (the paper's intro lists it among Chameleon's
// routines).
const (
	GEMM Operation = iota
	POTRF
	GEQRF
)

// String reports "GEMM", "POTRF" or "GEQRF".
func (o Operation) String() string {
	switch o {
	case POTRF:
		return "POTRF"
	case GEQRF:
		return "GEQRF"
	}
	return "GEMM"
}

// Flops reports the operation's total work for order n.
func (o Operation) Flops(n int) units.Flops {
	switch o {
	case POTRF:
		return chameleon.PotrfFlops(n)
	case GEQRF:
		return chameleon.GeqrfFlops(n)
	}
	return chameleon.GemmFlops(n)
}

// Workload is one (operation, size, tiling, precision) instance.
type Workload struct {
	Op        Operation
	N, NB     int
	Precision prec.Precision
}

// String renders e.g. "DGEMM N=74880 NB=5760".
func (w Workload) String() string {
	return fmt.Sprintf("%s%s N=%d NB=%d", w.Precision.BLASPrefix(), w.Op, w.N, w.NB)
}

// Config describes one measured run.
type Config struct {
	// Spec is the platform to build.
	Spec platform.Spec
	// Workload is the operation to run.
	Workload Workload
	// Plan assigns a power level per GPU; nil means all-H.
	Plan powercap.Plan
	// BestFrac resolves the plan's B levels (P_best as fraction of TDP,
	// from Table II).
	BestFrac float64
	// CPUCaps maps socket index to a RAPL cap (§V-C's experiment).
	CPUCaps map[int]units.Watts
	// Scheduler overrides the policy (default dmdas).
	Scheduler string
	// SkipCalibration runs with cold performance models (ablation:
	// what happens when the scheduler is *not* informed of the caps).
	SkipCalibration bool
	// StaleModels runs the paper's counterfactual: models are calibrated
	// at the default power state, the caps are applied afterwards, and
	// worker classes ignore the power state — so the scheduler plans
	// with estimates that are wrong on every capped GPU.
	StaleModels bool
	// Model, when set, supplies pre-trained performance models and
	// skips the calibration pass (used by ablations).
	Model *perfmodel.History
	// Seed drives randomised schedulers.
	Seed int64
	// Telemetry, when set, instruments the measured pass: task and
	// scheduler-decision counters, perfmodel calibration metrics, and a
	// power/energy time-series sampler attached to the run.
	Telemetry *telemetry.Collector
	// Trace, when set, records a causal span trace of the measured pass
	// (one span per task with per-span energy attribution) into
	// Result.Trace.  Traces are per-run objects, so parallel sweep cells
	// never share a tracer.
	Trace bool
	// Faults injects a deterministic fault schedule into the measured
	// pass (and cap writes): transient cap failures, clamping, thermal
	// throttles, device dropout, task faults.  The injector's seed is
	// CellSeed(Seed, cell identity), so every cell of a sweep draws its
	// own schedule even when the sweep shares one root seed.  The zero
	// value injects nothing and adds zero cost.
	Faults faults.Spec
	// CapBreaker overrides the cap-write circuit breaker threshold: > 0
	// trips a board after that many consecutive exhausted cap writes,
	// < 0 disables the breaker, 0 keeps the platform default.
	CapBreaker int
	// Events, when set, receives structured observability events from
	// the run's deep seams (cap-retry exhaustion, breaker trips, worker
	// evictions, degraded completion).  Events are observations only —
	// they never feed back into the simulation — so the bus is excluded
	// from CheckpointKey, like Telemetry.  Event timestamps are virtual
	// (engine) seconds; wall-clock enters only at the serving edge.
	Events *obs.Bus

	// heartbeat, when set by the sweep executor's watchdog, is pinged on
	// every task completion of the measured pass.  It rides the observer
	// chain, so it cannot change simulation outcomes — which is why it is
	// excluded from CheckpointKey.
	heartbeat func()
}

// Result is one measured run.
type Result struct {
	// Plan echoes the GPU plan ("HHBB").
	Plan string
	// Workload echoes the workload.
	Workload Workload
	// Makespan is the measured-pass execution time.
	Makespan units.Seconds
	// Rate is the achieved operation throughput.
	Rate units.FlopsPerSec
	// Energy is the node's total Joules over the measured pass (all
	// CPUs + all GPUs, the paper's §IV-C protocol).
	Energy units.Joules
	// Device breaks Energy down per device ("CPU0", "GPU2", ...).
	Device map[string]units.Joules
	// Efficiency is Gflop/s/Watt, the paper's figure of merit.
	Efficiency float64
	// Stats digests the schedule.
	Stats *trace.Stats
	// Trace is the measured pass's span trace (nil unless Config.Trace).
	Trace *spantrace.Trace
	// Degraded, when set, reports the run completed on a reduced machine
	// after worker eviction (graceful degradation, not an error).
	Degraded *DegradedRun
	// Faults, when set, summarises injected faults and recovery actions
	// (nil unless Config.Faults injects something).
	Faults *FaultReport
}

// DegradedRun describes a run that finished on a reduced machine: some
// workers died mid-run and their work was requeued onto survivors.
type DegradedRun struct {
	// Plan is the surviving plan in the paper's notation with "_" for
	// dead boards ("HHB_" = an HHBB machine that lost GPU 3).
	Plan string
	// Evictions lists the worker removals in virtual-time order.
	Evictions []starpu.Eviction
}

// FaultReport summarises one run's injected faults and what recovering
// from them cost.
type FaultReport struct {
	// Spec echoes the injected fault mix (canonical ParseSpec syntax).
	Spec string
	// Injected counts the faults the injector actually fired.
	Injected faults.Stats
	// CapRetries counts extra cap-write attempts the verified applicator
	// needed; CapClamped counts writes whose read-back differed from the
	// request.
	CapRetries int
	CapClamped int
	// TaskRetries sums failed execution attempts over all tasks.
	TaskRetries int
}

// Run executes one configuration: build platform, apply caps,
// calibration pass, then the measured pass bracketed by RAPL and NVML
// energy counter reads.
//
// Run recycles the DAG storage of its runtimes across calls (see
// getArena): a Result holds no runtime pointer, so once the run
// succeeded nothing reads its tasks again.  Runs whose runtime outlives
// them keep their storage: a Telemetry run (the collector's sampler
// holds the runtime), Inspect, RunDynamic (the controller holds it) and
// every failed run (a *starpu.PermanentFaultError holds tasks; a
// panicking run never gets as far as recycling).
func Run(cfg Config) (*Result, error) {
	recycle := cfg.Telemetry == nil && eventsim.PoolingEnabled()
	var a *starpu.Arena
	if recycle {
		a = getArena()
	} else {
		a = new(starpu.Arena)
	}
	in, err := run(cfg, nil, false, a)
	if err != nil {
		return nil, err
	}
	if recycle {
		putArena(a)
	}
	return in.Result, nil
}

// arenas holds the DAG storage (starpu.Arena) of finished Run calls for
// the next ones, so a sweep's cells reuse it instead of allocating a
// DAG each.  A sync.Pool alone misses whenever a sweep's worker
// goroutine starts on another P than the one whose private slot holds
// the last arena, which happened in three of five warm sweeps of
// BenchmarkHotpathCells: each miss grows a new arena (~2.4 MB on the
// reduced Fig. 4 grid).  The last slot in front of the pool serves a
// serial sweep from any P; it keeps one reset arena, which references
// no graph, reachable while the process idles.
var arenas struct {
	last atomic.Pointer[starpu.Arena]
	pool sync.Pool // holds *starpu.Arena
}

// getArena takes a reset arena, or a new one when none is held.
func getArena() *starpu.Arena {
	if a := arenas.last.Swap(nil); a != nil {
		return a
	}
	if a, ok := arenas.pool.Get().(*starpu.Arena); ok {
		return a
	}
	return new(starpu.Arena)
}

// putArena resets a and holds it for the next getArena, unless it
// outgrew the cache bound graphCacheTasks: one oversized cell should not
// pin its storage for the rest of the process.
func putArena(a *starpu.Arena) {
	if a.Tasks() > graphCacheTasks {
		return
	}
	a.Reset()
	if !arenas.last.CompareAndSwap(nil, a) {
		arenas.pool.Put(a)
	}
}

// Inspection is one run together with what it ran on, kept inspectable
// after the measured pass: the platform (with per-device power traces
// of the measured pass), the measured runtime and the calibrated model.
type Inspection struct {
	*Result
	Platform *platform.Platform
	Runtime  *starpu.Runtime
	Model    *perfmodel.History

	// ctl is the online cap controller of a dynamic run.
	ctl *dyncap.Controller
}

// Inspect executes one configuration as Run does, records per-device
// power traces over the measured pass, and also returns the platform,
// runtime and model it used.
func Inspect(cfg Config) (*Inspection, error) {
	return run(cfg, nil, true, new(starpu.Arena))
}

// run is the one measurement protocol behind Run, Inspect and
// RunDynamic.  dyn, when set, installs the online cap controller on the
// measured pass; powerTraces records per-device power steps over it.
// Both runtimes carve their DAGs from a.
func run(cfg Config, dyn *dyncap.Config, powerTraces bool, a *starpu.Arena) (*Inspection, error) {
	p, err := platform.New(cfg.Spec)
	if err != nil {
		return nil, err
	}
	if cfg.Plan == nil {
		cfg.Plan = powercap.MustParsePlan(repeat('H', cfg.Spec.GPUCount))
	}
	if len(cfg.Plan) != cfg.Spec.GPUCount {
		return nil, fmt.Errorf("core: plan %s does not match %d GPUs", cfg.Plan, cfg.Spec.GPUCount)
	}
	planLabel := cfg.Plan.String()
	if dyn != nil {
		planLabel = "dynamic"
	}
	p.ClassIgnoresCap = cfg.StaleModels
	p.SetCapBreaker(cfg.CapBreaker)
	// The platform, the runtime and the controller record what happened
	// to the cell; publishRecords publishes them on every return path
	// from here on, error returns included.
	var (
		rt    *starpu.Runtime
		scope *telemetry.RunScope
		ctl   *dyncap.Controller
		res   *Result
	)
	defer func() { publishRecords(cfg, planLabel, p, rt, scope, ctl, res) }()
	// The fault injector must be installed before the first cap write so
	// the verified applicator sees its failures/clamps from the start.
	var inj *faults.Injector
	var faultSpec string
	if !cfg.Faults.Zero() {
		// Seed by cell identity, not cfg.Seed alone: a sweep hands every
		// cell the same root seed, and reusing it verbatim would replay
		// one fault schedule (same draws, same doomed board) across the
		// whole sweep.
		faultSpec = cfg.Faults.String()
		injSeed := CellSeed(cfg.Seed, fmt.Sprintf("faults|%s|%s|%s|%s",
			cfg.Spec.Name, cfg.Workload, cfg.Plan, faultSpec))
		inj = faults.NewInjector(cfg.Faults, injSeed)
		inj.BindLimits(cfg.Spec.GPUArch.MinPower, cfg.Spec.GPUArch.TDP)
		p.InstallCapFaults(inj)
	}
	if !cfg.StaleModels {
		// Paper protocol: caps first, calibrate under them.
		if err := p.SetGPUCaps(cfg.Plan.Caps(cfg.Spec.GPUArch, cfg.BestFrac)); err != nil {
			return nil, err
		}
	}
	for socket, cap := range cfg.CPUCaps {
		if err := p.SetCPUCap(socket, cap); err != nil {
			return nil, err
		}
	}

	model := cfg.Model
	if model == nil {
		model = perfmodel.NewHistory()
	}
	if cfg.Telemetry != nil {
		cfg.Telemetry.InstallModelHook(model)
	}
	sched := cfg.Scheduler
	if sched == "" {
		sched = "dmdas"
	}

	// Calibration pass: a reduced instance with the same tile size (so
	// the same footprints) populates the model for every worker class
	// under the caps just applied.
	if !cfg.SkipCalibration && cfg.Model == nil {
		calRT, err := a.New(p, starpu.Config{Scheduler: "calibrate", Model: model, Seed: cfg.Seed})
		if err != nil {
			return nil, err
		}
		if err := Submit(calRT, CalibrationWorkload(cfg.Workload)); err != nil {
			return nil, err
		}
		if _, err := calRT.Run(); err != nil {
			return nil, fmt.Errorf("core: calibration pass: %w", err)
		}
	}
	if cfg.StaleModels {
		// Counterfactual: the caps land after calibration and the model
		// keys cannot tell the difference.
		if err := p.SetGPUCaps(cfg.Plan.Caps(cfg.Spec.GPUArch, cfg.BestFrac)); err != nil {
			return nil, err
		}
	}

	// Measured pass, bracketed by the energy counters the paper uses:
	// PAPI/RAPL for the CPUs, NVML for the GPUs.
	if powerTraces {
		p.EnablePowerTraces()
	}
	region, err := p.RAPL.Start()
	if err != nil {
		return nil, err
	}
	gpuStart, err := readGPUEnergies(p)
	if err != nil {
		return nil, err
	}

	// Telemetry observes through a per-run scope: the collector's
	// counters are shared and concurrency-safe, but worker-label
	// resolution and the time-series sampler bind to this run's runtime
	// so concurrent cells of a parallel sweep never interleave series.
	// The span tracer tees in beside it; both are per-run objects.
	var tracer *spantrace.Tracer
	rtCfg := starpu.Config{Scheduler: sched, Model: model, Seed: cfg.Seed}
	if cfg.Telemetry != nil {
		scope = cfg.Telemetry.NewRunScope()
	}
	if cfg.Trace {
		tracer = spantrace.NewTracer(p)
	}
	var observers []starpu.Observer
	if cfg.heartbeat != nil {
		observers = append(observers, heartbeatObserver{fn: cfg.heartbeat})
	}
	if scope != nil {
		observers = append(observers, scope)
	}
	if tracer != nil {
		observers = append(observers, tracer)
	}
	if inj != nil {
		// The injector rides the observer chain (completion-count
		// triggers for throttles/dropouts) and the runtime's task-fault
		// seam.  It only arms the measured pass: the calibration pass
		// above ran fault-free, as a warm-up would.
		observers = append(observers, inj)
		rtCfg.Faults = inj
	}
	rtCfg.Observer = starpu.CombineObservers(observers...)
	if rt, err = a.New(p, rtCfg); err != nil {
		return nil, err
	}
	if inj != nil {
		inj.Bind(rt, p)
	}
	if err := Submit(rt, cfg.Workload); err != nil {
		return nil, err
	}
	if measuredHook != nil {
		measuredHook(rt)
	}
	if scope != nil {
		if _, err := scope.Attach(p, rt, telemetry.SamplerConfig{}); err != nil {
			return nil, err
		}
	}
	if tracer != nil {
		// No virtual time passes between the counter reads above and here,
		// so the tracer's window coincides with the energy bracket.
		tracer.Begin(rt)
	}
	if dyn != nil {
		if ctl, err = startController(p, rt, *dyn); err != nil {
			return nil, err
		}
	}
	makespan, err := rt.Run()
	if err != nil {
		return nil, err
	}

	cpuJoules, err := region.Stop()
	if err != nil {
		return nil, err
	}
	gpuEnd, err := readGPUEnergies(p)
	if err != nil {
		return nil, err
	}

	stats := trace.Collect(rt)
	if ctl != nil {
		makespan = stats.Makespan // excludes the trailing controller tick
	}
	res = &Result{
		Plan:     planLabel,
		Workload: cfg.Workload,
		Makespan: makespan,
		Device:   make(map[string]units.Joules),
		Stats:    stats,
	}
	for i, j := range cpuJoules {
		res.Device[fmt.Sprintf("CPU%d", i)] = j
		res.Energy += j
	}
	for i := range gpuEnd {
		j := units.Joules(float64(gpuEnd[i]-gpuStart[i]) / 1000) // mJ -> J
		res.Device[fmt.Sprintf("GPU%d", i)] = j
		res.Energy += j
	}
	flops := cfg.Workload.Op.Flops(cfg.Workload.N)
	res.Rate = units.Rate(flops, makespan)
	if res.Energy > 0 {
		res.Efficiency = float64(flops) / float64(res.Energy) / units.Giga
	}
	if inj != nil {
		rep := &FaultReport{Spec: faultSpec, Injected: inj.Stats()}
		capStats := p.CapStats()
		rep.CapRetries = capStats.Retries
		rep.CapClamped = capStats.Clamped
		for _, t := range rt.Tasks() {
			rep.TaskRetries += t.Retries
		}
		res.Faults = rep
	}
	// Evictions (a bus dropout, a breaker trip mid-run) and a breaker
	// that tripped during setup both leave the run finished on the
	// survivors: the same degraded continuation.
	if evs := rt.Evictions(); len(evs) > 0 || len(p.BreakerTrips()) > 0 {
		res.Degraded = &DegradedRun{
			Plan:      p.PlanString(),
			Evictions: append([]starpu.Eviction(nil), evs...),
		}
	}
	if tracer != nil {
		// Finalize against the same counter deltas the result reports, so
		// the trace's reconciliation targets exactly what Fig. 5 plots.
		res.Trace = tracer.Finalize(res.Device)
		if cfg.Telemetry != nil {
			rep := spantrace.Analyze(res.Trace, 0)
			cfg.Telemetry.ObserveTraceSummary(
				float64(rep.CritPath.Length), rep.CritPath.Fraction,
				rep.IdleFraction, rep.Parallelism)
		}
	}
	return &Inspection{Result: res, Platform: p, Runtime: rt, Model: model, ctl: ctl}, nil
}

// publishRecords turns what the cell's layers recorded into bus events
// and telemetry; run defers it, so it sees every return path (rt,
// scope, ctl and res are nil when run returned before making them).
// The platform's cap faults and the runtime's evictions are merged in
// virtual-time order.  On a tie the lower-numbered board goes first,
// and on one board the cap fault precedes the eviction: the dynamic
// controller's tick trips a breaker and evicts that board's worker
// board by board.  Only a finished run reports DegradedRun and the
// fault and breaker counters.
func publishRecords(cfg Config, plan string, p *platform.Platform, rt *starpu.Runtime,
	scope *telemetry.RunScope, ctl *dyncap.Controller, res *Result) {
	if scope != nil && ctl != nil {
		scope.ObserveCapMoves(ctl.History())
	}
	faults := p.CapFaults()
	var evs []starpu.Eviction
	if rt != nil {
		evs = rt.Evictions()
	}
	degraded := res != nil && res.Degraded != nil
	// The cell key is built only when there is an event to carry it.
	if bus := cfg.Events; bus != nil && (len(faults) > 0 || len(evs) > 0 || degraded) {
		cell := cfg.CheckpointKey()
		for len(faults) > 0 || len(evs) > 0 {
			if len(faults) > 0 && (len(evs) == 0 || faults[0].T < evs[0].T ||
				faults[0].T == evs[0].T && faults[0].GPU <= p.WorkerGPU(evs[0].Worker)) {
				f := faults[0]
				faults = faults[1:]
				ev := obs.Event{Type: obs.CapRetryExhausted, Cell: cell, Plan: plan,
					GPU: f.GPU, SimTime: float64(f.T), Detail: f.Err}
				if f.Trip {
					ev.Type = obs.BreakerTripped
				}
				bus.Publish(ev)
				continue
			}
			e := evs[0]
			evs = evs[1:]
			bus.Publish(obs.Event{Type: obs.WorkerEvicted, Cell: cell, Plan: plan,
				Worker: e.Worker, SimTime: float64(e.T), Detail: e.Reason})
		}
		if degraded {
			bus.Publish(obs.Event{Type: obs.DegradedRun, Cell: cell, Plan: plan,
				Workload: cfg.Workload.String(), SimTime: float64(res.Makespan), Detail: res.Degraded.Plan})
		}
	}
	if res == nil || cfg.Telemetry == nil {
		return
	}
	if res.Faults != nil {
		cfg.Telemetry.ObserveFaults(res.Faults.Injected, res.Faults.CapRetries, len(rt.Evictions()))
	}
	for _, g := range p.BreakerTrips() {
		cfg.Telemetry.ObserveBreakerTrip(g)
	}
}

// measuredHook, when set, sees every measured runtime once it holds its
// DAG: the seam the storage-ownership tests watch runtimes through.  It
// is nil for every real caller.
var measuredHook func(*starpu.Runtime)

// readGPUEnergies snapshots every GPU's cumulative energy counter (mJ).
func readGPUEnergies(p *platform.Platform) ([]uint64, error) {
	n, ret := p.NVML.DeviceGetCount()
	if err := ret.Error(); err != nil {
		return nil, err
	}
	out := make([]uint64, n)
	for i := 0; i < n; i++ {
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

// Submit instantiates the workload's DAG (cost-only descriptors;
// numeric validation lives in the test suite) into rt, which must be
// empty.  The DAG is recorded once per workload and cached (graphFor).
func Submit(rt *starpu.Runtime, w Workload) error {
	g, err := graphFor(w)
	if err != nil {
		return err
	}
	return rt.SubmitGraph(g)
}

// graphCacheTasks bounds the recorded tasks the DAG cache holds.  At
// ~70 B of graph per task that is about 4.5 MB; a reduced Fig. 4 grid's
// shapes take a quarter of it.
const graphCacheTasks = 64 << 10

// graphs caches recorded DAGs by workload.  A graph is a pure function
// of its key and never written after starpu.Record, so sharing one
// across goroutines, jobs and sweeps cannot change any output.  When a
// new graph would exceed the bound, the oldest entries are dropped
// first; a graph larger than the bound is used but not kept.
var graphs struct {
	sync.Mutex
	m     map[Workload]*starpu.Graph
	order []Workload // insertion order, oldest first
	tasks int
}

// graphFor returns w's recorded DAG, recording it on a miss.  Two
// goroutines missing on the same workload both record it; the first
// to finish is kept.
func graphFor(w Workload) (*starpu.Graph, error) {
	graphs.Lock()
	g := graphs.m[w]
	graphs.Unlock()
	if g != nil {
		return g, nil
	}
	g, err := starpu.Record(func(rt *starpu.Runtime) error { return build(rt, w) })
	if err != nil {
		return nil, err
	}
	graphs.Lock()
	defer graphs.Unlock()
	if old := graphs.m[w]; old != nil {
		return old, nil
	}
	if g.NumTasks() > graphCacheTasks {
		return g, nil
	}
	for graphs.tasks+g.NumTasks() > graphCacheTasks {
		graphs.tasks -= graphs.m[graphs.order[0]].NumTasks()
		delete(graphs.m, graphs.order[0])
		graphs.order = graphs.order[1:]
	}
	if graphs.m == nil {
		graphs.m = make(map[Workload]*starpu.Graph)
	}
	graphs.m[w] = g
	graphs.order = append(graphs.order, w)
	graphs.tasks += g.NumTasks()
	return g, nil
}

// build submits the workload's DAG through the Chameleon builders.
func build(rt *starpu.Runtime, w Workload) error {
	switch w.Precision {
	case prec.Single:
		return submitTyped[float32](rt, w)
	default:
		return submitTyped[float64](rt, w)
	}
}

// CalibrationWorkload reports the reduced instance the calibration pass
// runs before a measured pass of w: the same tile size (so the same
// footprints) over at most calibrationTiles tile rows.  An order of
// more than calibrationTiles tiles, edge tile included, is cut to
// exactly calibrationTiles full tiles.
func CalibrationWorkload(w Workload) Workload {
	if nt := (w.N + w.NB - 1) / w.NB; nt > calibrationTiles {
		w.N = w.NB * calibrationTiles
	}
	return w
}

// calibrationTiles bounds the calibration instance's tile rows.
const calibrationTiles = 6

func submitTyped[T linalg.Float](rt *starpu.Runtime, w Workload) error {
	switch w.Op {
	case POTRF:
		d, err := chameleon.NewDesc[T](rt, w.N, w.NB, false)
		if err != nil {
			return err
		}
		return chameleon.Potrf(rt, d)
	case GEQRF:
		d, err := chameleon.NewDesc[T](rt, w.N, w.NB, false)
		if err != nil {
			return err
		}
		_, err = chameleon.Geqrf(rt, d)
		return err
	default:
		a, err := chameleon.NewDesc[T](rt, w.N, w.NB, false)
		if err != nil {
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
}

func repeat(c byte, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = c
	}
	return string(b)
}

// Delta compares a run against the default (all-H) baseline using the
// paper's sign conventions: positive performance = speedup, positive
// energy = savings.
type Delta struct {
	// PerfPct is the performance change in percent (negative = slowdown).
	PerfPct float64
	// EnergyPct is the energy saving in percent (negative = more energy).
	EnergyPct float64
	// EffGainPct is the relative efficiency improvement in percent.
	EffGainPct float64
}

// Compare computes the paper's deltas of v relative to base.
func Compare(base, v *Result) Delta {
	return Delta{
		PerfPct:    units.PercentChange(float64(base.Rate), float64(v.Rate)),
		EnergyPct:  -units.PercentChange(float64(base.Energy), float64(v.Energy)),
		EffGainPct: units.PercentChange(base.Efficiency, v.Efficiency),
	}
}
