package telemetry

import (
	"strconv"
	"sync"

	"repro/internal/dyncap"
	"repro/internal/platform"
	"repro/internal/starpu"
)

// RunScope scopes a shared Collector to one measured run.  The parallel
// sweep executor runs many simulations at once against one collector;
// the collector's counters are concurrency-safe by construction, but
// worker-label resolution and the time-series sampler are per-run state.
// A RunScope pins both to its own runtime, so concurrent runs never
// resolve labels through — or append samples into — another run's
// series.
//
// The scope implements starpu.Observer; pass it (not the collector) as
// the runtime observer for any run that may execute concurrently.
type RunScope struct {
	c *Collector

	mu      sync.Mutex
	rt      *starpu.Runtime
	sampler *Sampler
}

// NewRunScope creates a scope over the collector for one run.
func (c *Collector) NewRunScope() *RunScope {
	return &RunScope{c: c}
}

// Attach starts this run's sampler (registered in the collector's
// shared registry — gauges are last-writer-wins across concurrent runs,
// series stay per-scope) and binds worker-label resolution to the
// runtime.  It also publishes the sampler as the collector's current
// one so live endpoints keep working; with concurrent runs the "current"
// sampler is simply the most recently attached.
func (s *RunScope) Attach(plat *platform.Platform, rt *starpu.Runtime, cfg SamplerConfig) (*Sampler, error) {
	smp, err := AttachSampler(s.c.Registry, plat, rt, cfg)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.rt = rt
	s.sampler = smp
	s.mu.Unlock()
	s.c.mu.Lock()
	s.c.sampler = smp
	s.c.mu.Unlock()
	return smp, nil
}

// Sampler reports this run's sampler (nil before Attach).
func (s *RunScope) Sampler() *Sampler {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sampler
}

func (s *RunScope) runtime() *starpu.Runtime {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rt
}

// ObserveCapMoves reports the dynamic cap controller's moves, read off
// its history once the measured pass ends: each is counted and lands in
// this run's sampler's event series.
func (s *RunScope) ObserveCapMoves(moves []dyncap.CapChange) {
	smp := s.Sampler()
	for _, ch := range moves {
		s.c.dyncapMoves.With(strconv.Itoa(ch.GPU)).Inc()
		if smp != nil {
			smp.ObserveCapChange(ch.T, ch.GPU, ch.Old, ch.New)
		}
	}
}

// ---- starpu.Observer ----

// TaskSubmitted counts one submission on the shared collector.
func (s *RunScope) TaskSubmitted(t *starpu.Task) {
	s.c.tasksSubmitted.With(t.Codelet.Name).Inc()
}

// TaskStarted counts one compute-phase start, labelled via this run's
// runtime ("unknown" before Attach).
func (s *RunScope) TaskStarted(workerID int, _ *starpu.Task) {
	s.c.tasksStarted.With(kindOf(s.runtime(), workerID)).Inc()
}

// TaskCompleted counts one completion with its duration and transfers,
// labelled via this run's runtime.
func (s *RunScope) TaskCompleted(workerID int, t *starpu.Task) {
	rt := s.runtime()
	kind, name := kindOf(rt, workerID), nameOf(rt, workerID)
	s.c.tasksCompleted.With(name, kind, t.Codelet.Name).Inc()
	s.c.taskDuration.With(kind).Observe(float64(t.Duration()))
	s.c.transferBytes.With(name).Add(float64(t.TransferBytes))
}

// SchedDecision counts and logs one placement decision.
func (s *RunScope) SchedDecision(d starpu.Decision) {
	s.c.decisions.With(d.Scheduler, d.Reason).Inc()
	s.c.Decisions.Record(d)
}

var _ starpu.Observer = (*RunScope)(nil)

// kindOf / nameOf resolve worker labels through a run's runtime (the
// observer callbacks do not carry the machine).
func kindOf(rt *starpu.Runtime, workerID int) string {
	if rt == nil || workerID < 0 || workerID >= len(rt.Workers()) {
		return "unknown"
	}
	return rt.Workers()[workerID].Info.Kind.String()
}

func nameOf(rt *starpu.Runtime, workerID int) string {
	if rt == nil || workerID < 0 || workerID >= len(rt.Workers()) {
		return "unknown"
	}
	return rt.Workers()[workerID].Info.Name
}
