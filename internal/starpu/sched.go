package starpu

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/units"
)

// Scheduler is a task-placement policy.  Push is called once per task
// when it becomes dependency-free; Pop is called by idle workers.
type Scheduler interface {
	// Name reports the policy name.
	Name() string
	// Init binds the scheduler to its runtime.
	Init(rt *Runtime)
	// Push enqueues a ready task.
	Push(t *Task)
	// Pop hands a task to an idle worker, or nil.
	Pop(w *Worker) *Task
}

// newScheduler builds a policy by name.
func newScheduler(name string) (Scheduler, error) {
	switch name {
	case "eager":
		return &eagerSched{}, nil
	case "random":
		return &randomSched{}, nil
	case "ws":
		return &wsSched{}, nil
	case "dm":
		return &dmSched{name: "dm"}, nil
	case "dmda":
		return &dmSched{name: "dmda", dataAware: true}, nil
	case "dmdas":
		return &dmSched{name: "dmdas", dataAware: true, sorted: true}, nil
	case "dmdae":
		return newDmdae(), nil
	case "calibrate":
		return &calibrateSched{}, nil
	}
	return nil, fmt.Errorf("starpu: unknown scheduler %q (eager, random, ws, dm, dmda, dmdas, dmdae, calibrate)", name)
}

// SchedulerNames lists the available policies.
func SchedulerNames() []string {
	return []string{"eager", "random", "ws", "dm", "dmda", "dmdas", "dmdae", "calibrate"}
}

// ---------------------------------------------------------------- eager

// eagerSched is StarPU's eager policy: one shared FIFO; workers grab the
// first task they can run.
type eagerSched struct {
	rt    *Runtime
	queue []*Task
}

func (s *eagerSched) Name() string     { return "eager" }
func (s *eagerSched) Init(rt *Runtime) { s.rt = rt }
func (s *eagerSched) Push(t *Task) {
	s.queue = append(s.queue, t)
	s.rt.WakeAll()
}

func (s *eagerSched) Pop(w *Worker) *Task {
	for i, t := range s.queue {
		if s.rt.CanRun(w.ID, t.Codelet) {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			s.rt.observeDecision(Decision{Task: t, Scheduler: s.Name(), Chosen: w.ID, Reason: "eager-pop"})
			return t
		}
	}
	return nil
}

// QueueLen reports the shared queue's depth on worker 0.
func (s *eagerSched) QueueLen(worker int) int {
	if worker == 0 {
		return len(s.queue)
	}
	return 0
}

// --------------------------------------------------------------- random

// randomSched assigns each ready task to a uniformly random eligible
// worker (StarPU's random policy, the paper's lower baseline).
type randomSched struct {
	rt     *Runtime
	rng    *rand.Rand
	queues [][]*Task
}

func (s *randomSched) Name() string { return "random" }
func (s *randomSched) Init(rt *Runtime) {
	s.rt = rt
	s.rng = rand.New(rand.NewSource(rt.cfg.Seed + 1))
	s.queues = make([][]*Task, rt.machine.NumWorkers())
}

func (s *randomSched) Push(t *Task) {
	var eligible []int
	for i := range s.queues {
		if s.rt.CanRun(i, t.Codelet) {
			eligible = append(eligible, i)
		}
	}
	target := eligible[s.rng.Intn(len(eligible))]
	s.queues[target] = append(s.queues[target], t)
	s.rt.observeDecision(Decision{Task: t, Scheduler: s.Name(), Chosen: target, Reason: "random"})
	s.rt.WakeWorker(target)
}

func (s *randomSched) Pop(w *Worker) *Task {
	q := s.queues[w.ID]
	if len(q) == 0 {
		return nil
	}
	t := q[0]
	s.queues[w.ID] = q[1:]
	return t
}

// QueueLen reports worker i's ready-queue depth.
func (s *randomSched) QueueLen(worker int) int { return len(s.queues[worker]) }

// DrainWorker reclaims a dead worker's queue for requeueing.
func (s *randomSched) DrainWorker(worker int) []*Task {
	q := s.queues[worker]
	s.queues[worker] = nil
	return q
}

// ------------------------------------------------------- work stealing

// wsSched is a locality-aware work-stealing policy: tasks are pushed to
// the worker that released them; idle workers pop LIFO locally and steal
// FIFO from victims.
type wsSched struct {
	rt     *Runtime
	rng    *rand.Rand
	deques [][]*Task
}

func (s *wsSched) Name() string { return "ws" }
func (s *wsSched) Init(rt *Runtime) {
	s.rt = rt
	s.rng = rand.New(rand.NewSource(rt.cfg.Seed + 2))
	s.deques = make([][]*Task, rt.machine.NumWorkers())
}

func (s *wsSched) Push(t *Task) {
	home := s.rt.lastWorker
	reason := "locality-home"
	if home < 0 || !s.rt.CanRun(home, t.Codelet) {
		// Initial tasks (or ineligible home): spread over eligible workers.
		var eligible []int
		for i := 0; i < s.rt.machine.NumWorkers(); i++ {
			if s.rt.CanRun(i, t.Codelet) {
				eligible = append(eligible, i)
			}
		}
		home = eligible[s.rng.Intn(len(eligible))]
		reason = "spread"
	}
	s.deques[home] = append(s.deques[home], t)
	s.rt.observeDecision(Decision{Task: t, Scheduler: s.Name(), Chosen: home, Reason: reason})
	s.rt.WakeAll() // thieves may now find work
}

func (s *wsSched) Pop(w *Worker) *Task {
	// Local LIFO.
	q := s.deques[w.ID]
	for i := len(q) - 1; i >= 0; i-- {
		if s.rt.CanRun(w.ID, q[i].Codelet) {
			t := q[i]
			s.deques[w.ID] = append(q[:i], q[i+1:]...)
			return t
		}
	}
	// Steal FIFO from a random starting victim.
	n := len(s.deques)
	off := s.rng.Intn(n)
	for k := 0; k < n; k++ {
		v := (off + k) % n
		if v == w.ID {
			continue
		}
		vq := s.deques[v]
		for i, t := range vq {
			if s.rt.CanRun(w.ID, t.Codelet) {
				s.deques[v] = append(vq[:i], vq[i+1:]...)
				s.rt.observeDecision(Decision{Task: t, Scheduler: s.Name(), Chosen: w.ID, Reason: "steal"})
				return t
			}
		}
	}
	return nil
}

// QueueLen reports worker i's deque depth.
func (s *wsSched) QueueLen(worker int) int { return len(s.deques[worker]) }

// DrainWorker reclaims a dead worker's deque for requeueing.
func (s *wsSched) DrainWorker(worker int) []*Task {
	q := s.deques[worker]
	s.deques[worker] = nil
	return q
}

// ------------------------------------------------- dequeue model family

// dmSched implements the dequeue-model family (§III-B):
//
//	dm    — place on the worker minimising expected completion time
//	        using the performance models (HEFT-like; "heft-tm-pr").
//	dmda  — additionally count the data-transfer time to the worker's
//	        memory node ("heft-tmdp-pr").
//	dmdas — additionally keep per-worker queues sorted by the priority
//	        the application expert assigned, breaking ties towards tasks
//	        whose data already sits on the device.
//	dmdae — dmdas plus an energy term (see newDmdae).
type dmSched struct {
	name      string
	dataAware bool
	sorted    bool
	rt        *Runtime
	queues    []taskQueue

	// power prices dmdae's energy term (gamma > 0); it is nil for the
	// other policies and when the machine has no PowerModel, which
	// drops the term.
	power PowerModel
	gamma float64
	pref  float64 // reference power (W) converting J to s

	// scores holds each worker group's terms for the current push; an
	// entry is current when its seq equals pushSeq.
	scores  []groupScore
	pushSeq uint64
}

// groupScore is one worker group's share of a Push: every worker in
// the group has the same eligibility, estimate, transfer and energy
// terms (the DomainModel contract), so they are computed once.
type groupScore struct {
	seq        uint64
	eligible   bool
	calibrated bool
	est        units.Seconds
	xfer       units.Seconds
	energy     units.Seconds
}

func (s *dmSched) Name() string { return s.name }
func (s *dmSched) Init(rt *Runtime) {
	s.rt = rt
	s.queues = make([]taskQueue, rt.machine.NumWorkers())
	for i := range s.queues {
		s.queues[i].sorted = s.sorted
	}
	s.scores = make([]groupScore, rt.groups)
	if s.gamma > 0 {
		s.power, _ = rt.machine.(PowerModel)
	}
}

// Push places t on the worker with the least metric
//
//	metric = max(exp_end, now) + estimate [+ transfer] [+ energy]
//
// scanning workers in index order, first of equals winning.  The
// estimate, transfer and energy terms are computed once per worker
// group, from the group's first live member; only availability is per
// worker.
func (s *dmSched) Push(t *Task) {
	rt := s.rt
	now := rt.machine.Engine().Now()
	s.pushSeq++
	observing := rt.observing()
	cands := rt.cands[:0]
	best := -1
	bestMetric := units.Seconds(math.Inf(1))
	var bestECT units.Seconds
	for i, w := range rt.workers {
		if w.dead {
			continue
		}
		g := &s.scores[rt.workerGroup[i]]
		if g.seq != s.pushSeq {
			s.scoreGroup(g, t, i)
		}
		if !g.eligible {
			continue
		}
		avail := w.expEnd
		if now > avail {
			avail = now
		}
		// ect is when the worker's compute engine would finish this
		// task; the (weighted) transfer term only biases the choice —
		// staging overlaps compute, so it must not inflate exp_end.
		// Terms a policy does not use are zero.
		ect := avail + g.est
		metric := ect + g.xfer + g.energy
		if observing {
			cands = append(cands, Candidate{Worker: i, Estimate: g.est, Transfer: g.xfer, Metric: metric, Calibrated: g.calibrated})
		}
		if metric < bestMetric {
			best, bestMetric, bestECT = i, metric, ect
		}
	}
	if best < 0 {
		panic(fmt.Sprintf("starpu: %s push found no eligible worker (Submit should have rejected)", s.name))
	}
	rt.workers[best].expEnd = bestECT
	s.queues[best].push(t)
	if observing {
		rt.cands = cands
		reason := "min-completion-time"
		if s.power != nil {
			reason = "min-energy-completion-time"
		}
		rt.observeDecision(Decision{Task: t, Scheduler: s.name, Chosen: best, Reason: reason, Candidates: cands})
	}
	rt.WakeWorker(best)
}

// scoreGroup fills g's terms for t from worker i, a live member.
func (s *dmSched) scoreGroup(g *groupScore, t *Task, i int) {
	rt := s.rt
	*g = groupScore{seq: s.pushSeq, eligible: rt.machine.CanRun(i, t.Codelet)}
	if !g.eligible {
		return
	}
	g.est, g.calibrated = rt.estimate(t, i)
	if s.dataAware {
		g.xfer = rt.transferEstimate(t, rt.workers[i].Info.Node)
	}
	if s.power != nil {
		energy := float64(s.power.ExecPower(i, t)) * float64(g.est)
		g.energy = units.Seconds(s.gamma * energy / s.pref)
	}
}

func (s *dmSched) Pop(w *Worker) *Task {
	q := &s.queues[w.ID]
	if q.len() == 0 {
		return nil
	}
	if s.sorted {
		return q.popBestLocal(s.rt, w.ID)
	}
	return q.pop()
}

// QueueLen reports worker i's ready-queue depth.
func (s *dmSched) QueueLen(worker int) int { return s.queues[worker].len() }

// DrainWorker reclaims a dead worker's queue for requeueing.
func (s *dmSched) DrainWorker(worker int) []*Task { return s.queues[worker].drainAll() }

// ------------------------------------------------------------ calibrate

// calibrateSched spreads every (codelet, footprint) class round-robin
// over all eligible workers, so one calibration pass populates the
// history model for each worker class — StarPU's forced-calibration
// behaviour after a power-state change.
type calibrateSched struct {
	rt     *Runtime
	counts map[calibKey][]int // per-worker sample count
	queues [][]*Task
}

// calibKey identifies one calibration class: a codelet name and a data
// footprint, the performance model's per-class key.
type calibKey struct {
	name      string
	footprint uint64
}

func (s *calibrateSched) Name() string { return "calibrate" }
func (s *calibrateSched) Init(rt *Runtime) {
	s.rt = rt
	s.counts = make(map[calibKey][]int)
	s.queues = make([][]*Task, rt.machine.NumWorkers())
}

func (s *calibrateSched) Push(t *Task) {
	key := calibKey{name: t.Codelet.Name, footprint: t.Footprint()}
	c, ok := s.counts[key]
	if !ok {
		c = make([]int, s.rt.machine.NumWorkers())
		s.counts[key] = c
	}
	best, bestN := -1, math.MaxInt
	for i := range c {
		if !s.rt.CanRun(i, t.Codelet) {
			continue
		}
		// Weight CPU workers down: one sample per class suffices and CPU
		// kernels are ~20x slower, so flooding them would dominate the
		// calibration makespan.
		n := c[i] + len(s.queues[i])
		if s.rt.workers[i].Info.Kind == CPUWorker {
			n *= 8
		}
		if n < bestN {
			best, bestN = i, n
		}
	}
	c[best]++
	s.queues[best] = append(s.queues[best], t)
	s.rt.observeDecision(Decision{Task: t, Scheduler: s.Name(), Chosen: best, Reason: "calibration-spread"})
	s.rt.WakeWorker(best)
}

func (s *calibrateSched) Pop(w *Worker) *Task {
	q := s.queues[w.ID]
	if len(q) == 0 {
		return nil
	}
	t := q[0]
	s.queues[w.ID] = q[1:]
	return t
}

// QueueLen reports worker i's ready-queue depth.
func (s *calibrateSched) QueueLen(worker int) int { return len(s.queues[worker]) }

// DrainWorker reclaims a dead worker's queue for requeueing.
func (s *calibrateSched) DrainWorker(worker int) []*Task {
	q := s.queues[worker]
	s.queues[worker] = nil
	return q
}

// ------------------------------------------------------------ taskQueue

// taskQueue is FIFO by default; when sorted, it is a priority queue
// ordered by task priority (descending) then readiness order.
type taskQueue struct {
	sorted bool
	fifo   []*Task
	heap   taskHeap
	seq    int
}

func (q *taskQueue) len() int {
	if q.sorted {
		return len(q.heap)
	}
	return len(q.fifo)
}

func (q *taskQueue) push(t *Task) {
	if q.sorted {
		q.seq++
		q.heap.push(heapItem{t: t, seq: q.seq, prio: t.Priority})
		return
	}
	q.fifo = append(q.fifo, t)
}

// drainAll empties the queue, returning tasks in pop order.
func (q *taskQueue) drainAll() []*Task {
	var out []*Task
	for {
		t := q.pop()
		if t == nil {
			return out
		}
		out = append(out, t)
	}
}

func (q *taskQueue) pop() *Task {
	if q.sorted {
		if len(q.heap) == 0 {
			return nil
		}
		return q.heap.popMin().t
	}
	if len(q.fifo) == 0 {
		return nil
	}
	t := q.fifo[0]
	q.fifo = q.fifo[1:]
	return t
}

// popBestLocal pops the highest-priority task, preferring — among the
// front tasks of equal priority — the one with the most bytes already
// resident on worker node (dmdas's data-locality tie-break).  The
// window is the up-to-8 earliest-pushed tasks of the top priority, and
// the winner is the strict locality maximum (first of equals wins).
// The window is found in place: a frontier walk over the heap array
// visits entries in (priority desc, sequence asc) order, descending
// only into children of the top priority (a lower-priority child roots
// a lower-priority subtree), so the frontier never exceeds window+1
// indices.  Only the winner leaves the heap (removeAt); the remaining
// set — and hence every later pop — is what it would be had the window
// been popped and the losers pushed back.
func (q *taskQueue) popBestLocal(rt *Runtime, workerID int) *Task {
	h := q.heap
	if len(h) == 0 {
		return nil
	}
	const window = 8
	prio := h[0].prio
	var frontier [window + 1]int // heap indices; frontier[0] is the root
	nf := 1
	best, bestLocal := -1, units.Bytes(0)
	for k := 0; k < window && nf > 0; k++ {
		// Visit the earliest-pushed frontier entry (all share prio).
		m := 0
		for j := 1; j < nf; j++ {
			if h[frontier[j]].seq < h[frontier[m]].seq {
				m = j
			}
		}
		i := frontier[m]
		nf--
		frontier[m] = frontier[nf]
		if lb := rt.localBytes(h[i].t, workerID); best < 0 || lb > bestLocal {
			best, bestLocal = i, lb
		}
		for c := 2*i + 1; c <= 2*i+2 && c < len(h); c++ {
			if h[c].prio == prio {
				frontier[nf] = c
				nf++
			}
		}
	}
	t := h[best].t
	q.heap.removeAt(best)
	return t
}

// heapItem is one queued task.  prio is copied from Task.Priority at
// push (priorities are fixed once a task is submitted), so heap
// comparisons do not dereference the task.
type heapItem struct {
	t    *Task
	seq  int
	prio int
}

// taskHeap is a slice-backed binary min-heap over (priority descending,
// push sequence ascending).  Sequence numbers are unique within a
// queue, so the key is a strict total order: the pop sequence is a pure
// function of the held set, never of the array layout, which is what
// lets popBestLocal remove from the middle without changing scheduling
// order.
type taskHeap []heapItem

func (h taskHeap) less(i, j int) bool {
	if h[i].prio != h[j].prio {
		return h[i].prio > h[j].prio
	}
	return h[i].seq < h[j].seq
}

func (h taskHeap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (h taskHeap) siftDown(i int) {
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && h.less(r, l) {
			m = r
		}
		if !h.less(m, i) {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

func (h *taskHeap) push(it heapItem) {
	*h = append(*h, it)
	h.siftUp(len(*h) - 1)
}

func (h *taskHeap) popMin() heapItem {
	it := (*h)[0]
	h.removeAt(0)
	return it
}

// removeAt deletes entry i: the last entry takes its place and sifts
// down, then up (it may belong on either side of i's old key).
func (h *taskHeap) removeAt(i int) {
	old := *h
	n := len(old) - 1
	old[i] = old[n]
	old[n] = heapItem{} // drop the *Task reference for GC
	*h = old[:n]
	if i < n {
		(*h).siftDown(i)
		(*h).siftUp(i)
	}
}
