package starpu

import "repro/internal/units"

// Observer receives runtime lifecycle events as they happen in virtual
// time — the hook the telemetry layer attaches to.  All callbacks fire
// from inside the (single-threaded) simulation loop; implementations
// must not call back into the runtime and should return quickly.
//
// A nil Observer in Config disables all instrumentation at zero cost.
type Observer interface {
	// TaskSubmitted fires once per successful Submit.
	TaskSubmitted(t *Task)
	// TaskStarted fires when t's compute phase begins on a worker
	// (transfers done), at virtual time t.StartT.
	TaskStarted(workerID int, t *Task)
	// TaskCompleted fires when t finishes, at virtual time t.EndT.
	// Timing fields (StartT, EndT, TransferBytes, WorkerID) are final.
	TaskCompleted(workerID int, t *Task)
	// SchedDecision fires once per placement decision.  The dequeue-model
	// schedulers fill Candidates with their per-worker estimates; simpler
	// policies report only the chosen worker and a reason.
	SchedDecision(d Decision)
}

// AbortObserver is the optional Observer extension receiving aborted
// execution attempts (fault injection, worker eviction).  When the
// callback fires, t's timing fields still describe the aborted attempt
// and t.Retries already counts it.  The same no-callback-into-runtime
// rule as Observer applies.
type AbortObserver interface {
	TaskAborted(workerID int, t *Task)
}

// Candidate is one worker considered by a placement decision.
type Candidate struct {
	// Worker is the candidate's runtime index.
	Worker int
	// Estimate is the modelled compute duration on this worker.
	Estimate units.Seconds
	// Transfer is the (weighted) data-arrival cost term.
	Transfer units.Seconds
	// Metric is the value the scheduler minimised (availability +
	// estimate + transfer for the dm family).
	Metric units.Seconds
	// Calibrated reports whether the estimate came from a calibrated
	// model rather than the uncalibrated fallback rate.
	Calibrated bool
}

// Decision is one scheduler placement: which workers were considered,
// which one won, and why.
type Decision struct {
	// Time is the virtual time of the decision.
	Time units.Seconds
	// Task is the placed task (its ID, Tag and Codelet identify it).
	Task *Task
	// Scheduler is the policy name that decided.
	Scheduler string
	// Chosen is the winning worker's index.
	Chosen int
	// Reason is a short machine-readable cause ("min-completion-time",
	// "random", "locality-home", "steal", "eager-pop",
	// "calibration-spread").
	Reason string
	// Candidates lists the considered workers (nil for policies that do
	// not estimate).  The runtime reuses its backing array across
	// decisions: it is valid only during the SchedDecision call, and an
	// observer that keeps it must copy it.
	Candidates []Candidate
}

// QueueLengther is the optional Scheduler extension reporting per-worker
// ready-queue depths, the signal the telemetry sampler records.
// Policies with one shared queue report it on worker 0.
type QueueLengther interface {
	QueueLen(worker int) int
}

// QueueDepth reports the scheduler's ready-queue depth for worker i, or
// 0 when the active policy does not expose queues.
func (rt *Runtime) QueueDepth(i int) int {
	if q, ok := rt.sched.(QueueLengther); ok {
		return q.QueueLen(i)
	}
	return 0
}

// Inflight reports how many tasks the worker currently holds (popped but
// not completed).
func (w *Worker) Inflight() int { return w.inflight }

// multiObserver fans every callback out to several observers in order.
type multiObserver []Observer

func (m multiObserver) TaskSubmitted(t *Task) {
	for _, o := range m {
		o.TaskSubmitted(t)
	}
}

func (m multiObserver) TaskStarted(workerID int, t *Task) {
	for _, o := range m {
		o.TaskStarted(workerID, t)
	}
}

func (m multiObserver) TaskCompleted(workerID int, t *Task) {
	for _, o := range m {
		o.TaskCompleted(workerID, t)
	}
}

func (m multiObserver) SchedDecision(d Decision) {
	for _, o := range m {
		o.SchedDecision(d)
	}
}

// TaskAborted forwards to the members that implement AbortObserver.
func (m multiObserver) TaskAborted(workerID int, t *Task) {
	for _, o := range m {
		if ao, ok := o.(AbortObserver); ok {
			ao.TaskAborted(workerID, t)
		}
	}
}

// CombineObservers tees runtime events to every non-nil observer, in
// argument order.  It returns nil when none remain (keeping the
// nil-Observer fast path) and the observer itself when only one does.
func CombineObservers(obs ...Observer) Observer {
	var live multiObserver
	for _, o := range obs {
		if o != nil {
			live = append(live, o)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return live
}

// observeDecision forwards a decision to the configured observer.
func (rt *Runtime) observeDecision(d Decision) {
	if rt.cfg.Observer != nil {
		d.Time = rt.machine.Engine().Now()
		rt.cfg.Observer.SchedDecision(d)
	}
}

// observing reports whether decision details are worth collecting.
func (rt *Runtime) observing() bool { return rt.cfg.Observer != nil }
