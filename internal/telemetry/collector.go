package telemetry

import (
	"fmt"
	"io"
	"runtime"
	"sync"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/perfmodel"
	"repro/internal/units"
)

// Version is the build identity capsim_build_info exposes.  Release
// automation may override it at link time (-ldflags -X).
var Version = "dev"

// SurfaceSource is the aggregation tier seen from the telemetry server:
// something that can validate a metric name and render the merged
// efficiency surface.  *agg.Surface satisfies it; the indirection keeps
// the server decoupled from the aggregation tier (telemetry/agg builds
// on telemetry, not the other way around).
type SurfaceSource interface {
	ValidMetric(metric string) bool
	WriteSurfaceJSON(w io.Writer, metric string) error
}

// Collector bundles the registry, the decision log and the most
// recently attached sampler — the one object experiment drivers thread
// through a sweep to get full telemetry.  Runs observe through a
// RunScope (NewRunScope), which implements starpu.Observer.
//
// A Collector outlives individual runs: counters accumulate across a
// sweep while each RunScope.Attach swaps the current sampler.
type Collector struct {
	Registry  *Registry
	Decisions *DecisionLog

	tasksSubmitted *CounterVec
	tasksStarted   *CounterVec
	tasksCompleted *CounterVec
	taskDuration   *HistogramVec
	transferBytes  *CounterVec
	decisions      *CounterVec
	modelRecords   *CounterVec
	calibrations   *CounterVec
	estimateErr    *HistogramVec
	dyncapMoves    *CounterVec
	traceSummary   *GaugeVec
	faultsInjected *CounterVec
	capRetries     *CounterVec
	workersEvicted *CounterVec
	cellsPanicked  *CounterVec
	cellsHung      *CounterVec
	cellsResumed   *CounterVec
	breakerTrips   *CounterVec
	droppedRollups *CounterVec
	buildInfo      *GaugeVec
	runInfo        *GaugeVec

	mu       sync.Mutex
	sampler  *Sampler
	surface  SurfaceSource
	bus      *obs.Bus
	progress *obs.Tracker
}

// NewCollector builds a collector with a fresh registry and a bounded
// decision log.
func NewCollector() *Collector {
	reg := NewRegistry()
	c := &Collector{
		Registry:  reg,
		Decisions: NewDecisionLog(0),
	}
	c.tasksSubmitted = reg.NewCounter("capsim_tasks_submitted_total", "Tasks submitted to the runtime.", "codelet")
	c.tasksStarted = reg.NewCounter("capsim_tasks_started_total", "Task compute phases begun.", "kind")
	c.tasksCompleted = reg.NewCounter("capsim_tasks_completed_total", "Tasks completed.", "worker", "kind", "codelet")
	c.taskDuration = reg.NewHistogram("capsim_task_duration_seconds", "Task compute durations.", nil, "kind")
	c.transferBytes = reg.NewCounter("capsim_transfer_bytes_total", "Bytes staged for completed tasks.", "worker")
	c.decisions = reg.NewCounter("capsim_sched_decisions_total", "Scheduler placement decisions.", "scheduler", "reason")
	c.modelRecords = reg.NewCounter("capsim_perfmodel_records_total", "Performance-model observations.", "class")
	c.calibrations = reg.NewCounter("capsim_perfmodel_calibrations_total", "First-time (calibration) observations per worker class.", "class")
	c.estimateErr = reg.NewHistogram("capsim_perfmodel_estimate_rel_error", "Relative error |observed-predicted|/observed of calibrated estimates.",
		[]float64{0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1, 2})
	c.dyncapMoves = reg.NewCounter("capsim_dyncap_cap_moves_total", "Cap moves applied by the dynamic controller.", "gpu")
	c.traceSummary = reg.NewGauge("capsim_trace_summary", "Span-trace analyzer summary of the most recent traced run.", "stat")
	c.faultsInjected = reg.NewCounter("capsim_faults_injected", "Faults injected by the deterministic injector.", "class")
	c.capRetries = reg.NewCounter("capsim_cap_retries", "Extra cap-write attempts beyond the first.")
	c.workersEvicted = reg.NewCounter("capsim_workers_evicted", "Workers evicted after permanent hardware faults.")
	c.cellsPanicked = reg.NewCounter("capsim_cells_panicked", "Sweep cells that panicked and were recovered by the pool.")
	c.cellsHung = reg.NewCounter("capsim_cells_hung", "Sweep cells the watchdog abandoned for lack of progress.")
	c.cellsResumed = reg.NewCounter("capsim_cells_resumed", "Sweep cells skipped because a checkpoint journal already held their result.")
	c.breakerTrips = reg.NewCounter("capsim_cap_breaker_tripped", "Cap-write circuit breakers tripped (device declared dead after consecutive write failures).", "gpu")
	c.droppedRollups = reg.NewCounter("capsim_telemetry_dropped_total", "Cell rollups dropped because the aggregation stream failed to write or sync them.")
	c.droppedRollups.With() // pre-create: a scrape shows 0, not absence
	c.buildInfo = reg.NewGauge("capsim_build_info", "Build identity; the value is always 1, the labels carry the information.", "version", "goversion")
	c.buildInfo.With(Version, runtime.Version()).Set(1)
	c.runInfo = reg.NewGauge("capsim_run_info", "Run identity; the value is always 1, the labels carry the information.", "run_id", "grid_sha")
	return c
}

// ObserveDroppedRollups counts cell rollups the aggregation stream
// dropped (a failed write or sync).
func (c *Collector) ObserveDroppedRollups(n int) {
	if n > 0 {
		c.droppedRollups.With().Add(float64(n))
	}
}

// SetSurface attaches the aggregation tier's surface so the server's
// /surface endpoint can query it; nil detaches.
func (c *Collector) SetSurface(s SurfaceSource) {
	c.mu.Lock()
	c.surface = s
	c.mu.Unlock()
}

// Surface reports the attached surface (nil before SetSurface).
func (c *Collector) Surface() SurfaceSource {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.surface
}

// ObserveCellPanic counts one sweep cell recovered from a panic.
func (c *Collector) ObserveCellPanic() { c.cellsPanicked.With().Inc() }

// ObserveCellHung counts one sweep cell the watchdog abandoned.
func (c *Collector) ObserveCellHung() { c.cellsHung.With().Inc() }

// ObserveCellResumed counts one sweep cell restored from a checkpoint.
func (c *Collector) ObserveCellResumed() { c.cellsResumed.With().Inc() }

// ObserveBreakerTrip counts one cap-write circuit breaker trip on a GPU.
func (c *Collector) ObserveBreakerTrip(gpu int) {
	c.breakerTrips.With(fmt.Sprintf("%d", gpu)).Inc()
}

// ObserveTraceSummary publishes the span-trace analyzer's headline
// numbers for the most recent traced run as gauges ("stat" label:
// critical_path_seconds, critical_path_fraction, idle_fraction,
// parallelism).  Gauges are last-writer-wins, matching the sampler's
// semantics under concurrent sweeps.
func (c *Collector) ObserveTraceSummary(critPathSeconds, critPathFraction, idleFraction, parallelism float64) {
	c.traceSummary.With("critical_path_seconds").Set(critPathSeconds)
	c.traceSummary.With("critical_path_fraction").Set(critPathFraction)
	c.traceSummary.With("idle_fraction").Set(idleFraction)
	c.traceSummary.With("parallelism").Set(parallelism)
}

// ObserveFaults publishes one run's fault-injection outcome: injected
// faults by class, extra cap-write attempts, and workers evicted.
// Counters accumulate across a sweep like the task counters do.
func (c *Collector) ObserveFaults(st faults.Stats, capRetries, evicted int) {
	add := func(class string, n int) {
		if n > 0 {
			c.faultsInjected.With(class).Add(float64(n))
		}
	}
	add("cap_fail", st.CapFailures)
	add("cap_clamp", st.CapClamps)
	add("task", st.TaskFaults)
	add("throttle", st.Throttles)
	add("dropout", st.Dropouts)
	if capRetries > 0 {
		c.capRetries.With().Add(float64(capRetries))
	}
	if evicted > 0 {
		c.workersEvicted.With().Add(float64(evicted))
	}
}

// Sampler reports the most recently attached run's sampler (nil before
// the first RunScope.Attach).
func (c *Collector) Sampler() *Sampler {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sampler
}

// InstallModelHook instruments a performance model: every Record counts
// toward the calibration/estimate-error metrics.  Install before the
// model is used.
func (c *Collector) InstallModelHook(h *perfmodel.History) {
	h.OnRecord = func(k perfmodel.Key, observed, predicted units.Seconds, calibrated bool) {
		c.modelRecords.With(k.WorkerClass).Inc()
		if !calibrated {
			c.calibrations.With(k.WorkerClass).Inc()
			return
		}
		if observed > 0 {
			rel := float64(observed-predicted) / float64(observed)
			if rel < 0 {
				rel = -rel
			}
			c.estimateErr.With().Observe(rel)
		}
	}
}
