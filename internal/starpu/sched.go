package starpu

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

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

	// expEnd is each worker's expected-availability horizon, the
	// "exp_end" of StarPU's dequeue-model schedulers.
	expEnd []units.Seconds
	// xfer is the current push's transfer term per memory node (dmda,
	// dmdas): one walk of the task's handles fills it, and each group
	// reads it at its node.  It shares expEnd's allocation.
	xfer []units.Seconds
	// members lists each scoring group's live workers in index order
	// (DrainWorker drops evicted ones), and scores holds each group's
	// terms for the current push.
	members [][]int32
	scores  []groupScore
	// priced counts the members Push has priced: the cost the idle-
	// member stop bounds, which no decision reveals, so tests read it.
	priced uint64
}

// groupScore is one worker group's share of a Push: every worker in
// the group has the same eligibility, estimate, transfer and energy
// terms (the DomainModel contract), so they are computed once.
type groupScore struct {
	eligible   bool
	calibrated bool
	est        units.Seconds
	xfer       units.Seconds
	energy     units.Seconds
}

func (s *dmSched) Name() string { return s.name }
func (s *dmSched) Init(rt *Runtime) {
	s.rt = rt
	n := rt.machine.NumWorkers()
	s.queues = make([]taskQueue, n)
	for i := range s.queues {
		s.queues[i].sorted = s.sorted
	}
	horizons := make([]units.Seconds, n+rt.nodes)
	s.expEnd, s.xfer = horizons[:n:n], horizons[n:]
	// Carve every group's member list out of one backing array; each
	// list is clipped to its own group's span.
	counts := make([]int, rt.groups)
	for _, g := range rt.workerGroup {
		counts[g]++
	}
	backing := make([]int32, n)
	s.members = make([][]int32, rt.groups)
	off := 0
	for g, c := range counts {
		s.members[g] = backing[off : off : off+c]
		off += c
	}
	for i, g := range rt.workerGroup {
		s.members[g] = append(s.members[g], int32(i))
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
// the lowest worker index winning among equals.  The scan is group-
// major: the estimate, transfer and energy terms are computed once per
// worker group, from the group's first live member, then the group's
// live members are priced from their exp_end alone, up to the first
// idle one.  The transfer terms of every node come from one walk of
// the task's handles.
func (s *dmSched) Push(t *Task) {
	rt := s.rt
	now := rt.machine.Engine().Now()
	best := -1
	bestMetric := units.Seconds(math.Inf(1))
	var bestECT units.Seconds
	if s.dataAware {
		rt.transferEstimates(s.xfer, t)
	}
	for g, members := range s.members {
		if len(members) == 0 {
			continue
		}
		sc := &s.scores[g]
		s.scoreGroup(sc, t, int(members[0]))
		if !sc.eligible {
			continue
		}
		for _, i := range members {
			ect, metric := sc.price(s.expEnd[i], now)
			s.priced++
			if metric < bestMetric || metric == bestMetric && int(i) < best {
				best, bestMetric, bestECT = int(i), metric, ect
			}
			if s.expEnd[i] <= now {
				// An idle member's avail is now, the least any member
				// can have, and the later members have higher indices:
				// none of them can beat or tie-win this metric.
				break
			}
		}
	}
	if best < 0 {
		panic(fmt.Sprintf("starpu: %s push found no eligible worker (Submit should have rejected)", s.name))
	}
	observing := rt.observing()
	if observing {
		// The same scores and metrics, listed in worker-index order.
		rt.cands = rt.cands[:0]
		for i, w := range rt.workers {
			sc := &s.scores[rt.workerGroup[i]]
			if w.dead || !sc.eligible {
				continue
			}
			_, metric := sc.price(s.expEnd[i], now)
			rt.cands = append(rt.cands, Candidate{Worker: i, Estimate: sc.est, Transfer: sc.xfer, Metric: metric, Calibrated: sc.calibrated})
		}
	}
	s.expEnd[best] = bestECT
	s.queues[best].push(t)
	if observing {
		reason := "min-completion-time"
		if s.power != nil {
			reason = "min-energy-completion-time"
		}
		rt.observeDecision(Decision{Task: t, Scheduler: s.name, Chosen: best, Reason: reason, Candidates: rt.cands})
	}
	rt.WakeWorker(best)
}

// price reports a worker's completion time and metric for the group's
// push, given the worker's exp_end.  ect is when the worker's compute
// engine would finish the task; the (weighted) transfer term only
// biases the choice — staging overlaps compute, so it must not inflate
// exp_end.  Terms a policy does not use are zero.
func (g *groupScore) price(expEnd, now units.Seconds) (ect, metric units.Seconds) {
	avail := expEnd
	if now > avail {
		avail = now
	}
	ect = avail + g.est
	return ect, ect + g.xfer + g.energy
}

// scoreGroup fills g's terms for t from worker i, a live member.
func (s *dmSched) scoreGroup(g *groupScore, t *Task, i int) {
	rt := s.rt
	*g = groupScore{eligible: rt.machine.CanRun(i, t.Codelet)}
	if !g.eligible {
		return
	}
	g.est, g.calibrated = rt.estimate(t, i)
	if s.dataAware {
		g.xfer = s.xfer[rt.workers[i].Info.Node]
	}
	if s.power != nil {
		energy := float64(s.power.ExecPower(i, t)) * float64(g.est)
		g.energy = units.Seconds(s.gamma * energy / s.pref)
	}
}

func (s *dmSched) Pop(w *Worker) *Task {
	q := &s.queues[w.ID]
	if s.sorted {
		return q.popBestLocal(s.rt, w.ID)
	}
	return q.pop()
}

// QueueLen reports worker i's ready-queue depth.
func (s *dmSched) QueueLen(worker int) int { return s.queues[worker].len() }

// DrainWorker reclaims a dead worker's queue for requeueing and drops
// the worker from its scoring group.
func (s *dmSched) DrainWorker(worker int) []*Task {
	g := s.rt.workerGroup[worker]
	if k := slices.Index(s.members[g], int32(worker)); k >= 0 {
		s.members[g] = slices.Delete(s.members[g], k, k+1)
	}
	return s.queues[worker].drainAll()
}

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

// taskQueue is a worker's ready queue: FIFO by default; when sorted, it
// pops by task priority (descending), then push order.  Queued tasks
// are linked through Task.qnext into one FIFO run per live priority (a
// single run when unsorted), and runs is ordered by priority ascending,
// so the top run is the last.  Only the top run is ever popped from,
// so only it can empty.  A task sits in at most one ready queue at a
// time: qnext is its only link.
type taskQueue struct {
	sorted bool
	runs   []taskRun
	n      int
}

// taskRun is the queued tasks of one priority, in push order.
type taskRun struct {
	prio       int
	head, tail *Task
}

func (q *taskQueue) len() int { return q.n }

func (q *taskQueue) push(t *Task) {
	prio := 0
	if q.sorted {
		prio = t.Priority
	}
	t.qnext = nil
	q.n++
	k := len(q.runs)
	for k > 0 && q.runs[k-1].prio > prio {
		k--
	}
	if k > 0 && q.runs[k-1].prio == prio {
		r := &q.runs[k-1]
		r.tail.qnext = t
		r.tail = t
		return
	}
	q.runs = slices.Insert(q.runs, k, taskRun{prio: prio, head: t, tail: t})
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

// pop removes the head of the top run.
func (q *taskQueue) pop() *Task {
	if q.n == 0 {
		return nil
	}
	r := &q.runs[len(q.runs)-1]
	t := r.head
	q.unlink(r, nil, t)
	return t
}

// popBestLocal pops the highest-priority task, preferring — among the
// front tasks of equal priority — the one with the most bytes already
// resident on worker node (dmdas's data-locality tie-break).  The
// window is the first up-to-8 links of the top run, and the winner is
// the strict locality maximum (first of equals wins).  Only the winner
// leaves the run, so every later pop is what it would be had the
// window been popped and the losers pushed back.
func (q *taskQueue) popBestLocal(rt *Runtime, workerID int) *Task {
	if q.n == 0 {
		return nil
	}
	const window = 8
	r := &q.runs[len(q.runs)-1]
	best, bestPrev := r.head, (*Task)(nil)
	bestLocal := rt.localBytes(best, workerID)
	prev := best
	for k, t := 1, best.qnext; k < window && t != nil; k, t = k+1, t.qnext {
		if lb := rt.localBytes(t, workerID); lb > bestLocal {
			best, bestPrev, bestLocal = t, prev, lb
		}
		prev = t
	}
	q.unlink(r, bestPrev, best)
	return best
}

// unlink removes t, which follows prev (nil for the head), from run r,
// dropping the run once it empties (r is then the top run).
func (q *taskQueue) unlink(r *taskRun, prev, t *Task) {
	if prev == nil {
		r.head = t.qnext
	} else {
		prev.qnext = t.qnext
	}
	if r.tail == t {
		r.tail = prev
	}
	q.n--
	if r.head == nil {
		last := len(q.runs) - 1
		q.runs[last] = taskRun{} // drop the task references for GC
		q.runs = q.runs[:last]
	}
}
