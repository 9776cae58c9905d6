package starpu

import (
	"fmt"
	"strings"

	"repro/internal/units"
)

// This file holds the runtime's fault-tolerance machinery: bounded task
// retry driven by a pluggable injector, and worker eviction with requeue
// onto survivors (graceful degradation when a GPU falls off the bus).

// FaultInjector decides, per execution attempt, whether a task fails
// mid-compute — the seam the faults package plugs into Config.Faults.
// Implementations are consulted from inside the single-threaded
// simulation loop, in deterministic virtual-time order, so a seeded
// injector yields reproducible fault schedules.
type FaultInjector interface {
	// TaskAttempt is consulted once per execution attempt.  fail=true
	// aborts the attempt at start + frac*duration (frac clamped to
	// [0,1]); the runtime then retries the task subject to
	// MaxTaskRetries.
	TaskAttempt(t *Task, worker int, attempt int) (fail bool, frac float64)
	// MaxTaskRetries bounds failed attempts per task; a task exceeding
	// it surfaces as a *PermanentFaultError from Run.
	MaxTaskRetries() int
}

// TaskAborter is the optional Machine extension for attempt aborts:
// undo the power raised at OnTaskStart without crediting the attempt as
// completed work.  Machines without it get a plain OnTaskEnd, which is
// acceptable when the machine keeps no completed-work statistics.
type TaskAborter interface {
	OnTaskAbort(i int, t *Task)
}

// WorkerDrainer is the optional Scheduler extension eviction uses to
// reclaim a dead worker's queued tasks.  Policies with one shared queue
// need not implement it (their tasks remain reachable by survivors).
type WorkerDrainer interface {
	// DrainWorker empties worker i's ready queue, returning the tasks in
	// pop order.
	DrainWorker(worker int) []*Task
}

// Eviction summarises one worker's removal from service.
type Eviction struct {
	// Worker is the evicted worker's index.
	Worker int
	// T is the virtual time of the eviction.
	T units.Seconds
	// Reason is a short cause ("gpu-dropout", "test", ...).
	Reason string
	// Aborted counts execution attempts cut short on the worker.
	Aborted int
	// Requeued counts tasks handed back to the scheduler (aborted
	// attempts, the blocked slot, and the drained ready queue).
	Requeued int
	// Stranded counts tasks no surviving worker can run; a stranded task
	// surfaces as a *PermanentFaultError from Run.
	Stranded int
}

// PermanentFaultError reports tasks the run could not complete: retry
// budgets exhausted and/or tasks stranded by evictions.  The rest of the
// DAG keeps executing before Run returns it, so statistics and traces
// still cover the surviving work.
type PermanentFaultError struct {
	// Failed lists tasks that exceeded MaxTaskRetries.
	Failed []*Task
	// Stranded lists tasks no surviving worker could run.
	Stranded []*Task
}

// Error summarises the casualty counts.
func (e *PermanentFaultError) Error() string {
	return fmt.Sprintf("starpu: run incomplete: %d tasks exhausted retries, %d stranded by evictions",
		len(e.Failed), len(e.Stranded))
}

// CanRun reports whether worker i is alive and able to run c — the
// predicate schedulers use so evicted workers stop receiving work.
func (rt *Runtime) CanRun(i int, c *Codelet) bool {
	return !rt.workers[i].dead && rt.machine.CanRun(i, c)
}

// anyCanRun reports whether any surviving worker can run c.
func (rt *Runtime) anyCanRun(c *Codelet) bool {
	for i := range rt.workers {
		if rt.CanRun(i, c) {
			return true
		}
	}
	return false
}

// Dead reports whether the worker has been evicted.
func (w *Worker) Dead() bool { return w.dead }

// Evictions reports the run's worker evictions in order.
func (rt *Runtime) Evictions() []Eviction { return rt.evictions }

// EvictWorker removes worker i from service at the current virtual time:
// running attempts are aborted (power unwound, retry-counted), the
// blocked slot and the worker's ready queue are handed back to the
// scheduler for placement on survivors, data living only on the
// worker's private memory node is invalidated, and the worker's
// per-power-class performance-model entries are dropped so survivors'
// estimates are not polluted by a class that no longer exists.
//
// Call from inside the simulation loop (an engine event), never from an
// Observer callback directly — defer with engine.After(0, ...).
func (rt *Runtime) EvictWorker(i int, reason string) Eviction {
	w := rt.workers[i]
	ev := Eviction{Worker: i, T: rt.machine.Engine().Now(), Reason: reason}
	if w.dead {
		return ev
	}
	w.dead = true

	var requeue []*Task
	for len(w.running) > 0 {
		t := w.running[0]
		rt.abortAttempt(w, t, true)
		ev.Aborted++
		requeue = append(requeue, t)
	}
	// The blocked slot holds a popped task that never started staging:
	// hand it back to the scheduler rather than dropping it.
	if w.blocked != nil {
		t := w.blocked
		w.blocked = nil
		requeue = append(requeue, t)
	}
	if d, ok := rt.sched.(WorkerDrainer); ok {
		requeue = append(requeue, d.DrainWorker(i)...)
	}

	rt.invalidateNode(w.Info.Node, i)
	prefix := classPrefix(rt.machine.WorkerClass(i))
	rt.model.Invalidate(func(class string) bool { return strings.HasPrefix(class, prefix) })
	// The model invalidation above spans every power class the dead
	// worker ever calibrated under; evictions are rare, so flush the
	// whole estimate cache rather than matching entries by prefix.
	rt.flushEstimates()

	for _, t := range requeue {
		if !rt.anyCanRun(t.Codelet) {
			rt.stranded = append(rt.stranded, t)
			ev.Stranded++
			continue
		}
		rt.sched.Push(t)
		ev.Requeued++
	}
	rt.evictions = append(rt.evictions, ev)
	rt.WakeAll()
	return ev
}

// abortAttempt cancels t's current execution attempt on w: meter unwind
// if compute had begun, pin release, busy-time and availability
// corrections, and the attempt-generation bump that turns the attempt's
// still-scheduled events into no-ops.  countRetry distinguishes failed
// attempts (fault injection, eviction mid-flight) from requeues that
// never consumed the device.
func (rt *Runtime) abortAttempt(w *Worker, t *Task, countRetry bool) {
	now := rt.machine.Engine().Now()
	if t.powerOn {
		t.powerOn = false
		if ab, ok := rt.machine.(TaskAborter); ok {
			ab.OnTaskAbort(w.ID, t)
		} else {
			rt.machine.OnTaskEnd(w.ID, t)
		}
	}
	rt.unpinHandles(t, w.Info.Node)
	// startTask charged the full duration up front; give back the part
	// that never ran (all of it when the abort lands during staging).
	unrun := t.EndT - now
	if now < t.StartT {
		unrun = t.EndT - t.StartT
	}
	if unrun > 0 {
		w.busyTime -= unrun
	}
	if w.computeFree == t.EndT {
		w.computeFree = now
	}
	t.attempt++
	if countRetry {
		t.Retries++
	}
	t.WorkerID = -1
	w.inflight--
	rt.removeRunning(w, t)
	if rt.cfg.Observer != nil {
		if ao, ok := rt.cfg.Observer.(AbortObserver); ok {
			ao.TaskAborted(w.ID, t)
		}
	}
}

// failAttempt handles an injected mid-compute fault: abort, then retry
// through the scheduler or record the task as permanently failed.
func (rt *Runtime) failAttempt(w *Worker, t *Task) {
	rt.abortAttempt(w, t, true)
	if t.Retries > rt.cfg.Faults.MaxTaskRetries() {
		rt.permanent = append(rt.permanent, t)
	} else {
		rt.sched.Push(t)
	}
	rt.tryStart(w)
}

// removeRunning drops t from w's in-flight list.
func (rt *Runtime) removeRunning(w *Worker, t *Task) {
	for i, r := range w.running {
		if r == t {
			w.running = append(w.running[:i], w.running[i+1:]...)
			return
		}
	}
}

// invalidateNode handles data loss when a worker dies: if no surviving
// worker reaches the node, every copy on it is gone.  A handle whose
// last valid copy lived there is declared valid on the host — modelling
// recovery from a host-side checkpoint, the standard StarPU resilience
// assumption; the requeued writer re-executes and overwrites it anyway.
// The host node itself is never invalidated.
func (rt *Runtime) invalidateNode(node int, deadWorker int) {
	if node == 0 {
		return
	}
	for _, o := range rt.workers {
		if o.ID != deadWorker && !o.dead && o.Info.Node == node {
			return // node still reachable through a surviving worker
		}
	}
	for _, h := range rt.handles {
		if !h.valid.has(node) {
			continue
		}
		h.valid.clear(node)
		rt.dropInvalid(h, node)
		if h.valid == 0 {
			h.valid.set(0)
		}
	}
}

// classPrefix truncates a worker-class string after its power-state
// separator ("cuda0@216W" → "cuda0@"), so eviction can invalidate every
// power class the dead worker ever calibrated under.
func classPrefix(class string) string {
	if i := strings.IndexByte(class, '@'); i >= 0 {
		return class[:i+1]
	}
	return class
}

// abortTime places an injected fault inside the attempt's compute
// window.
func abortTime(start, dur units.Seconds, frac float64) units.Seconds {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	return start + units.Seconds(frac*float64(dur))
}
