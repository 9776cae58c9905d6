package starpu

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/perfmodel"
	"repro/internal/units"
)

// Worker is the runtime-side state of one processing unit.
type Worker struct {
	// ID indexes the worker within the runtime.
	ID int
	// Info is the machine's description.
	Info WorkerInfo

	// inflight counts tasks popped but not completed.  CUDA workers run
	// a depth-2 pipeline — while one task computes, the next one's data
	// stages over the link — reproducing StarPU's prefetching, which is
	// what keeps GPUs busy when tile transfers approach kernel times.
	inflight int
	// blocked holds a popped task whose working set cannot be staged
	// until running tasks unpin their data (bounded-memory nodes only).
	blocked *Task
	// computeFree is when the device's compute engine is next free.
	computeFree units.Seconds
	// expEnd is the scheduler's expected-availability horizon, the
	// "exp_end" of StarPU's dequeue-model schedulers.
	expEnd units.Seconds
	// running lists the in-flight attempts (for eviction); dead marks an
	// evicted worker, which never receives work again.
	running []*Task
	dead    bool

	// wake is the worker's preallocated poll callback (rt.tryStart(w)),
	// built once at runtime construction: workers are woken on every
	// push and completion, and a fresh closure per wake was a measurable
	// allocation source on the hot path.
	wake func()

	// Statistics.
	tasksRun int
	busyTime units.Seconds
	xferTime units.Seconds
}

// pipelineDepth reports how many tasks the worker may hold at once.
func (w *Worker) pipelineDepth() int {
	if w.Info.Kind == CUDAWorker {
		return 2
	}
	return 1
}

// TasksRun reports how many tasks the worker executed.
func (w *Worker) TasksRun() int { return w.tasksRun }

// BusyTime reports the cumulated compute time.
func (w *Worker) BusyTime() units.Seconds { return w.busyTime }

// TransferTime reports the cumulated time the worker waited on data.
func (w *Worker) TransferTime() units.Seconds { return w.xferTime }

// Config selects the runtime's policy knobs.
type Config struct {
	// Scheduler names the policy: "eager", "random", "ws", "dm",
	// "dmda", "dmdas" (default), or "calibrate".
	Scheduler string
	// Seed drives the randomised policies deterministically.
	Seed int64
	// Model is shared across runs so calibration survives; nil creates
	// a fresh history model.
	Model *perfmodel.History
	// Regression, when set, records work/duration pairs alongside the
	// history model.
	Regression *perfmodel.Regression
	// Observer, when set, receives task lifecycle and scheduler decision
	// events (telemetry).  Nil disables instrumentation.
	Observer Observer
	// Faults, when set, injects task execution faults: each attempt may
	// be aborted mid-compute and retried within the injector's budget.
	// Nil disables injection at zero cost (no draws, no extra events).
	Faults FaultInjector
	// TransferPenalty weights the data-transfer term in the dmda/dmdas
	// completion-time estimates (StarPU's --sched-beta).  Values above 1
	// make placement stickier, avoiding tile ping-pong between devices
	// when queue lengths fluctuate by less than a transfer.  Zero means
	// the default of 2.5.
	TransferPenalty float64
	// DisableTransferModel zeroes all transfer costs (ablation).
	DisableTransferModel bool
}

// Runtime executes submitted task DAGs on a Machine in virtual time.
// It is not safe for concurrent use; submissions and Run happen from one
// goroutine (the simulated world is single-threaded by design).
type Runtime struct {
	machine Machine
	cfg     Config
	sched   Scheduler
	model   *perfmodel.History

	workers  []*Worker
	tasks    []*Task
	handles  []*Handle
	nPending int

	// memory tracks bounded memory nodes (LRU eviction), indexed by
	// node; nil entries (or a nil slice, when the machine has no
	// CapacityModel) mark unbounded nodes.
	memory   []*nodeMemory
	memStats MemoryStats

	// lastWorker is the worker whose completion released the tasks
	// currently being pushed (locality hint for work stealing).
	lastWorker int

	// estSlots interns each task's estimate key to a dense slot at
	// Submit, and estRows[slot][class id] memoizes estimate() results,
	// so the dm-family schedulers hash nothing per (ready task,
	// candidate worker) pair.  Class ids intern (class string, worker
	// kind): workerClass caches each worker's last class string and
	// consults classIDs only when the machine reports a different one,
	// so a cap change moves the worker to a new id (and a new, empty
	// column).  Entries self-invalidate: each remembers the generation
	// of its class string, which a completion recording new samples for
	// that string bumps (classGen, indexed by string id).
	estSlots  map[estKey]int32
	estRows   [][]estVal
	lastClass []cachedClass
	classes   []classInfo
	classIDs  map[classKey]int32
	strIDs    map[string]int32
	classGen  []uint64

	// workerGroup maps each worker to its scoring group: workers sharing
	// a power domain (DomainModel), kind and memory node, which the
	// dm-family Push scores once per push.  Without the capability each
	// worker is its own group.  groups counts the groups.  cands is
	// Push's reusable Candidates buffer for observed decisions.
	workerGroup []int32
	groups      int
	cands       []Candidate

	// sizeIDs interns each registered handle's byte size to a small id,
	// and ttab[id][src*nodes+dst] holds Machine.TransferTime (pure, so
	// valid for the runtime's lifetime), filled when the size is first
	// seen.  nodes is the machine's memory-node count.
	sizeIDs map[units.Bytes]int32
	ttab    [][]units.Seconds
	nodes   int

	// Fault bookkeeping: evictions in order, tasks that exhausted their
	// retry budget, tasks stranded with no surviving eligible worker.
	evictions []Eviction
	permanent []*Task
	stranded  []*Task

	// onEviction, when set via SetEvictionHook, observes each completed
	// eviction (after requeue accounting) from inside the simulation
	// loop; it must not mutate runtime state.
	onEviction func(Eviction)
}

// New builds a runtime over machine with the given configuration.
func New(machine Machine, cfg Config) (*Runtime, error) {
	if cfg.Model == nil {
		cfg.Model = perfmodel.NewHistory()
	}
	if cfg.Scheduler == "" {
		cfg.Scheduler = "dmdas"
	}
	if cfg.TransferPenalty == 0 {
		cfg.TransferPenalty = 2.5
	}
	if n := machine.NumNodes(); n > maxNodes {
		return nil, fmt.Errorf("starpu: machine has %d memory nodes; the coherence bitset supports %d", n, maxNodes)
	}
	rt := &Runtime{
		machine:    machine,
		cfg:        cfg,
		model:      cfg.Model,
		lastWorker: -1,
		estSlots:   make(map[estKey]int32),
		classIDs:   make(map[classKey]int32),
		strIDs:     make(map[string]int32),
		lastClass:  make([]cachedClass, machine.NumWorkers()),
		sizeIDs:    make(map[units.Bytes]int32),
		nodes:      machine.NumNodes(),
	}
	for i := 0; i < machine.NumWorkers(); i++ {
		w := &Worker{ID: i, Info: machine.Worker(i)}
		w.wake = func() { rt.tryStart(w) }
		rt.workers = append(rt.workers, w)
		rt.lastClass[i].id = -1
	}
	rt.initGroups()
	sched, err := newScheduler(cfg.Scheduler)
	if err != nil {
		return nil, err
	}
	rt.sched = sched
	sched.Init(rt)
	rt.initMemory()
	return rt, nil
}

// initGroups assigns each worker its scoring group, numbering groups in
// order of their lowest worker index.
func (rt *Runtime) initGroups() {
	type groupKey struct {
		domain int
		kind   WorkerKind
		node   int
	}
	dm, grouped := rt.machine.(DomainModel)
	keys := make([]groupKey, 0, len(rt.workers))
	rt.workerGroup = make([]int32, len(rt.workers))
	for i, w := range rt.workers {
		k := groupKey{domain: i, kind: w.Info.Kind, node: w.Info.Node}
		if grouped {
			k.domain = dm.Domain(i)
		}
		g := slices.Index(keys, k)
		if g < 0 {
			g = len(keys)
			keys = append(keys, k)
		}
		rt.workerGroup[i] = int32(g)
	}
	rt.groups = len(keys)
}

// Machine reports the underlying machine.
func (rt *Runtime) Machine() Machine { return rt.machine }

// Model reports the performance model in use.
func (rt *Runtime) Model() *perfmodel.History { return rt.model }

// SchedulerName reports the active policy.
func (rt *Runtime) SchedulerName() string { return rt.sched.Name() }

// Workers reports the runtime's worker states.
func (rt *Runtime) Workers() []*Worker { return rt.workers }

// Tasks reports every submitted task (timing fields are filled by Run).
func (rt *Runtime) Tasks() []*Task { return rt.tasks }

// Pending reports how many submitted tasks have not completed —
// external controllers (dynamic capping) poll this to know when to stop
// rescheduling themselves.
func (rt *Runtime) Pending() int { return rt.nPending }

// Register creates a data handle of the given dimensions and element
// size.  data optionally carries the host payload for numeric runs.
// Handles start valid on the host node only.
func (rt *Runtime) Register(data interface{}, elemBytes units.Bytes, dims ...int) *Handle {
	n := 1
	for _, d := range dims {
		n *= d
	}
	h := &Handle{
		id:    int32(len(rt.handles)),
		bytes: units.Bytes(float64(n)) * elemBytes,
		dims:  append([]int(nil), dims...),
		data:  data,
		valid: 1, // host node
	}
	h.sizeID = rt.internSize(h.bytes)
	rt.handles = append(rt.handles, h)
	return h
}

// internSize returns the transfer-table id of byte size b, filling the
// size's table row the first time b is seen.
func (rt *Runtime) internSize(b units.Bytes) int32 {
	id, ok := rt.sizeIDs[b]
	if !ok {
		id = int32(len(rt.ttab))
		rt.sizeIDs[b] = id
		row := make([]units.Seconds, rt.nodes*rt.nodes)
		for i := range row {
			row[i] = rt.machine.TransferTime(i/rt.nodes, i%rt.nodes, b)
		}
		rt.ttab = append(rt.ttab, row)
	}
	return id
}

// Submit adds a task to the DAG.  Dependencies on earlier tasks are
// inferred from data access order (sequential consistency): writers
// depend on all prior accessors; readers depend on the prior writer.
func (rt *Runtime) Submit(t *Task) error {
	if t.Codelet == nil {
		return fmt.Errorf("starpu: task without codelet")
	}
	if len(t.Handles) != len(t.Modes) {
		return fmt.Errorf("starpu: task %q has %d handles but %d modes", t.Tag, len(t.Handles), len(t.Modes))
	}
	if !rt.anyCanRun(t.Codelet) {
		return fmt.Errorf("starpu: no worker can run codelet %q", t.Codelet.Name)
	}
	t.ID = len(rt.tasks)
	t.WorkerID = -1
	t.estSlot = rt.internEstimate(t)
	t.SubmitT = rt.machine.Engine().Now()
	// Dependency sets are a handful of tasks, so dedup scans a small
	// stack-backed slice; the per-Submit map was the largest allocation
	// site left in the cell profile.  A task never depends on itself.
	var depsBacking [8]*Task
	deps := depsBacking[:0]
	for i, h := range t.Handles {
		m := t.Modes[i]
		if m.reads() && h.lastWriter != nil {
			deps = addDep(deps, t, h.lastWriter)
		}
		if m.writes() {
			if h.lastWriter != nil {
				deps = addDep(deps, t, h.lastWriter)
			}
			for _, r := range h.readers {
				deps = addDep(deps, t, r)
			}
		}
	}
	for _, d := range t.DependsOn {
		if d == nil {
			return fmt.Errorf("starpu: task %q declares a nil dependency", t.Tag)
		}
		deps = addDep(deps, t, d)
	}
	// Update access history after scanning all handles, so a task that
	// both reads and writes the same handle does not depend on itself.
	for i, h := range t.Handles {
		m := t.Modes[i]
		if m.writes() {
			h.lastWriter = t
			h.readers = h.readers[:0]
		}
		if m == R {
			h.readers = append(h.readers, t)
		}
	}
	if len(deps) > 0 {
		t.edges = append(make([]*Task, 0, len(deps)), deps...)
		t.npreds = int32(len(deps))
	}
	for _, d := range deps {
		if !d.done {
			t.ndeps++
			d.edges = append(d.edges, t)
		}
	}
	// Predecessors are reported in ascending ID order; insertion sort on
	// the short slice avoids sort.Slice's reflection swapper allocation.
	preds := t.edges[:t.npreds]
	for i := 1; i < len(preds); i++ {
		p := preds[i]
		j := i - 1
		for j >= 0 && preds[j].ID > p.ID {
			preds[j+1] = preds[j]
			j--
		}
		preds[j+1] = p
	}
	rt.tasks = append(rt.tasks, t)
	rt.nPending++
	if rt.cfg.Observer != nil {
		rt.cfg.Observer.TaskSubmitted(t)
	}
	if t.ndeps == 0 {
		rt.markReady(t)
	}
	return nil
}

// addDep appends d to deps unless it is self or already present
// (identity dedup over the small slice).
func addDep(deps []*Task, self, d *Task) []*Task {
	if d == self {
		return deps
	}
	for _, x := range deps {
		if x == d {
			return deps
		}
	}
	return append(deps, d)
}

// markReady hands a dependency-free task to the scheduler.
func (rt *Runtime) markReady(t *Task) {
	t.ReadyT = rt.machine.Engine().Now()
	rt.sched.Push(t)
}

// WakeWorker prompts a worker with pipeline room to poll the scheduler
// (scheduled as a zero-delay event so it runs inside the simulation
// loop).
func (rt *Runtime) WakeWorker(i int) {
	w := rt.workers[i]
	if w.dead || w.inflight >= w.pipelineDepth() {
		return
	}
	rt.machine.Engine().After(0, w.wake)
}

// WakeAll prompts every worker with pipeline room.
func (rt *Runtime) WakeAll() {
	for _, w := range rt.workers {
		if !w.dead && w.inflight < w.pipelineDepth() {
			rt.machine.Engine().After(0, w.wake)
		}
	}
}

// tryStart pulls work for a worker with pipeline room and schedules its
// execution: data staging on the links now, compute when both the data
// and the device's compute engine are available.  Tasks whose working
// set cannot be staged while running tasks pin the node's memory wait
// in the worker's blocked slot and retry on the next completion.
func (rt *Runtime) tryStart(w *Worker) {
	for !w.dead && w.inflight < w.pipelineDepth() {
		var t *Task
		if w.blocked != nil {
			if !rt.canFit(w.blocked, w.Info.Node) {
				return // still waiting for pins to release
			}
			t, w.blocked = w.blocked, nil
		} else {
			t = rt.sched.Pop(w)
			if t == nil {
				return
			}
			if !rt.canFit(t, w.Info.Node) {
				rt.assertCouldFit(t, w.Info.Node)
				w.blocked = t
				return
			}
		}
		rt.startTask(w, t)
	}
}

// startTask commits t to w: memory staging, coherence, timing, power.
func (rt *Runtime) startTask(w *Worker, t *Task) {
	w.inflight++
	w.running = append(w.running, t)
	engine := rt.machine.Engine()
	now := engine.Now()

	// Make room on bounded nodes first: evictions (and any writebacks of
	// last copies) must complete before the incoming transfers start.
	node := w.Info.Node
	stageAt := now
	for _, h := range t.Handles {
		if r := rt.ensureResident(h, node, now); r > stageAt {
			stageAt = r
		}
	}
	rt.pinHandles(t, node)

	// Stage the data: one transfer per handle lacking a valid copy on
	// the worker's node.  Write-only accesses allocate without fetching
	// (StarPU does not transfer for STARPU_W).  Transfers serialize on
	// their links.
	ready := stageAt
	for i, h := range t.Handles {
		if h.valid.has(node) {
			continue
		}
		if t.Modes[i] == W {
			h.valid.set(node)
			continue
		}
		src := rt.pickSource(h, node)
		var end units.Seconds
		if rt.cfg.DisableTransferModel {
			end = stageAt
		} else {
			_, end = rt.machine.ReserveLink(src, node, stageAt, h.bytes)
		}
		if end > ready {
			ready = end
		}
		t.TransferBytes += h.bytes
		// The copy becomes valid on the destination; reads keep other
		// copies valid, writes invalidate them below.
		h.valid.set(node)
	}
	// Coherence: writes leave the writer's node as sole owner.
	for i, h := range t.Handles {
		if t.Modes[i].writes() {
			for s := uint64(h.valid); s != 0; s &= s - 1 {
				if n := bits.TrailingZeros64(s); n != node {
					rt.dropInvalid(h, n)
				}
			}
			h.valid = 0
			h.valid.set(node)
		}
	}

	dur := rt.machine.Exec(w.ID, t)
	if math.IsInf(float64(dur), 0) || math.IsNaN(float64(dur)) {
		panic(fmt.Sprintf("starpu: machine returned invalid duration %v for %q on worker %d", dur, t.Codelet.Name, w.ID))
	}
	start := ready
	if w.computeFree > start {
		start = w.computeFree
	}
	t.WorkerID = w.ID
	t.StartT = start
	t.EndT = start + dur
	w.computeFree = t.EndT
	w.xferTime += ready - now
	w.busyTime += dur
	// Events carry the attempt generation: an abort or eviction bumps
	// t.attempt, turning this attempt's still-queued events into no-ops.
	gen := t.attempt
	engine.At(start, func() {
		if t.attempt != gen {
			return
		}
		t.powerOn = true
		rt.machine.OnTaskStart(w.ID, t)
		if rt.cfg.Observer != nil {
			rt.cfg.Observer.TaskStarted(w.ID, t)
		}
		// The staging slot is free once compute begins: prefetch the
		// next task's data while this one runs.
		rt.tryStart(w)
	})
	if rt.cfg.Faults != nil {
		if fail, frac := rt.cfg.Faults.TaskAttempt(t, w.ID, t.attempt); fail {
			failAt := abortTime(start, dur, frac)
			engine.At(failAt, func() {
				if t.attempt != gen {
					return
				}
				rt.failAttempt(w, t)
			})
			return
		}
	}
	engine.At(t.EndT, func() {
		if t.attempt != gen {
			return
		}
		rt.complete(w, t)
	})
}

// pickSource chooses the node to copy h from: the valid node with the
// cheapest path to dst, lowest node index on ties.  Walking the valid
// bitset in ascending order keeps tie-breaks deterministic.
func (rt *Runtime) pickSource(h *Handle, dst int) int {
	best, bestT := 0, units.Seconds(math.Inf(1))
	for s := uint64(h.valid); s != 0; s &= s - 1 {
		n := bits.TrailingZeros64(s)
		if tt := rt.transferTime(h, n, dst); tt < bestT {
			best, bestT = n, tt
		}
	}
	return best
}

// transferTime reports Machine.TransferTime(from, to, h.Bytes()) from
// the runtime's transfer table.
func (rt *Runtime) transferTime(h *Handle, from, to int) units.Seconds {
	return rt.ttab[h.sizeID][from*rt.nodes+to]
}

// complete finishes t on w: power bookkeeping, model recording,
// dependency release.
func (rt *Runtime) complete(w *Worker, t *Task) {
	t.powerOn = false
	rt.removeRunning(w, t)
	rt.machine.OnTaskEnd(w.ID, t)
	rt.unpinHandles(t, w.Info.Node)
	t.done = true
	w.tasksRun++
	rt.nPending--

	class := &rt.classes[rt.workerClass(w.ID)]
	key := perfmodel.Key{
		Codelet:     t.Codelet.Name,
		Footprint:   t.Footprint(),
		WorkerClass: class.name,
	}
	rt.model.Record(key, t.Duration())
	if rt.cfg.Regression != nil {
		rt.cfg.Regression.Record(t.Codelet.Name, key.WorkerClass, t.Work, t.Duration())
	}
	// The new sample moved the model's mean (and regression fit) for this
	// class string; cached estimates rendered under the old generation
	// are stale, whichever worker kind rendered them.
	rt.classGen[class.str]++

	if rt.cfg.Observer != nil {
		rt.cfg.Observer.TaskCompleted(w.ID, t)
	}

	rt.lastWorker = w.ID
	if t.OnComplete != nil {
		t.OnComplete(t)
	}
	for _, s := range t.Successors() {
		s.ndeps--
		if s.ndeps == 0 {
			rt.markReady(s)
		}
	}
	w.inflight--
	rt.tryStart(w)
}

// Run executes all submitted tasks to completion in virtual time and
// returns the makespan (time from the first Run of this batch to the
// last task completion).  Run may be called repeatedly with fresh
// submissions; the clock keeps advancing monotonically.
func (rt *Runtime) Run() (units.Seconds, error) {
	engine := rt.machine.Engine()
	start := engine.Now()
	rt.WakeAll()
	engine.Run()
	if len(rt.permanent) > 0 || len(rt.stranded) > 0 {
		return 0, &PermanentFaultError{Failed: rt.permanent, Stranded: rt.stranded}
	}
	if rt.nPending > 0 {
		return 0, fmt.Errorf("starpu: %d tasks never ran (scheduler %q stalled or dependency cycle)", rt.nPending, rt.sched.Name())
	}
	return engine.Now() - start, nil
}

// estKey identifies one estimate slot.  The codelet is keyed by
// pointer identity (codelets are per-kernel singletons); work is part of
// the key because the regression model and the uncalibrated fallback
// scale with flops, not footprint.
type estKey struct {
	codelet   *Codelet
	footprint uint64
	work      units.Flops
}

// estVal is a memoized estimate plus the class-string generation it was
// computed under (see Runtime.estRows).  The zero value is an empty
// entry.
type estVal struct {
	filled     bool
	gen        uint64
	dur        units.Seconds
	calibrated bool
}

// classKey identifies one estimate column: the performance model is
// keyed by the class string, the uncalibrated fallback by worker kind.
type classKey struct {
	name string
	kind WorkerKind
}

// classInfo describes one interned class id; str indexes classGen.
type classInfo struct {
	name string
	kind WorkerKind
	str  int32
}

// cachedClass is a worker's last-seen class string and its id (-1
// until first asked).
type cachedClass struct {
	name string
	id   int32
}

// workerClass reports worker i's current class id.  The machine
// returns the same string instance while a worker's power state holds,
// so the steady state is one string comparison; the maps are consulted
// only when the string changes.
func (rt *Runtime) workerClass(i int) int32 {
	name := rt.machine.WorkerClass(i)
	wc := &rt.lastClass[i]
	if wc.id >= 0 && wc.name == name {
		return wc.id
	}
	k := classKey{name: name, kind: rt.workers[i].Info.Kind}
	id, ok := rt.classIDs[k]
	if !ok {
		str, ok := rt.strIDs[name]
		if !ok {
			str = int32(len(rt.classGen))
			rt.strIDs[name] = str
			rt.classGen = append(rt.classGen, 0)
		}
		id = int32(len(rt.classes))
		rt.classIDs[k] = id
		rt.classes = append(rt.classes, classInfo{name: name, kind: k.kind, str: str})
	}
	*wc = cachedClass{name: name, id: id}
	return id
}

// internEstimate returns t's estimate slot, registering its key the
// first time it is seen.  Rows start empty and grow on demand.
func (rt *Runtime) internEstimate(t *Task) int32 {
	k := estKey{codelet: t.Codelet, footprint: t.Footprint(), work: t.Work}
	slot, ok := rt.estSlots[k]
	if !ok {
		slot = int32(len(rt.estRows))
		rt.estSlots[k] = slot
		rt.estRows = append(rt.estRows, nil)
	}
	return slot
}

// flushEstimates empties every memoized estimate; slots stay interned.
func (rt *Runtime) flushEstimates() {
	for _, row := range rt.estRows {
		clear(row)
	}
}

// estimate reports the model's prediction for t on worker i, falling
// back to a work-proportional guess while uncalibrated.  Results are
// memoized per (estimate slot, class id) and trusted only while the
// class string's generation is unchanged.
func (rt *Runtime) estimate(t *Task, i int) (units.Seconds, bool) {
	id := rt.workerClass(i)
	c := &rt.classes[id]
	gen := rt.classGen[c.str]
	row := rt.estRows[t.estSlot]
	if int(id) >= len(row) {
		row = append(row, make([]estVal, len(rt.classes)-len(row))...)
		rt.estRows[t.estSlot] = row
	}
	v := &row[id]
	if v.filled && v.gen == gen {
		return v.dur, v.calibrated
	}
	dur, calibrated := rt.estimateUncached(t, c.kind, c.name)
	*v = estVal{filled: true, gen: gen, dur: dur, calibrated: calibrated}
	return dur, calibrated
}

func (rt *Runtime) estimateUncached(t *Task, kind WorkerKind, class string) (units.Seconds, bool) {
	key := perfmodel.Key{
		Codelet:     t.Codelet.Name,
		Footprint:   t.Footprint(),
		WorkerClass: class,
	}
	if d, ok := rt.model.Estimate(key); ok {
		return d, true
	}
	if rt.cfg.Regression != nil {
		if d, ok := rt.cfg.Regression.Estimate(t.Codelet.Name, class, t.Work); ok {
			return d, true
		}
	}
	// Uncalibrated fallback: a crude flat rate that at least prefers
	// GPUs, as StarPU's eager warm-up would discover quickly.
	rate := 5e9
	if kind == CUDAWorker {
		rate = 1e12
	}
	return units.Seconds(float64(t.Work) / rate), false
}

// transferEstimate reports dmda's data-arrival cost for t on memory
// node: the uncontended transfer time of every handle missing from it.
func (rt *Runtime) transferEstimate(t *Task, node int) units.Seconds {
	if rt.cfg.DisableTransferModel {
		return 0
	}
	var sum units.Seconds
	for _, h := range t.Handles {
		if h.valid.has(node) {
			continue
		}
		sum += rt.transferTime(h, rt.pickSource(h, node), node)
	}
	return units.Seconds(float64(sum) * rt.cfg.TransferPenalty)
}

// localBytes reports how many of t's input bytes already sit on worker
// i's node (dmdas's locality tie-break).
func (rt *Runtime) localBytes(t *Task, i int) units.Bytes {
	node := rt.workers[i].Info.Node
	var sum units.Bytes
	for _, h := range t.Handles {
		if h.valid.has(node) {
			sum += h.bytes
		}
	}
	return sum
}
