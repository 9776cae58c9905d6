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
	// running lists the in-flight attempts (for eviction); dead marks an
	// evicted worker, which never receives work again.
	running []*Task
	dead    bool

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
	// Observer, when set, receives task lifecycle and scheduler decision
	// events (telemetry).  Nil disables instrumentation.
	Observer Observer
	// Faults, when set, injects task execution faults: each attempt may
	// be aborted mid-compute and retried within the injector's budget.
	// Nil disables injection at zero cost (no draws, no extra events).
	Faults FaultInjector
}

// transferPenalty weights the data-transfer term in the dmda/dmdas
// completion-time estimates (StarPU's --sched-beta).  A value above 1
// makes placement stickier, avoiding tile ping-pong between devices
// when queue lengths fluctuate by less than a transfer.
const transferPenalty = 2.5

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

	// arena is where SubmitGraph and the estimate table carve: a
	// private one unless the runtime was built with Arena.New.
	arena *Arena

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
}

// New builds a runtime over machine with the given configuration.
func New(machine Machine, cfg Config) (*Runtime, error) {
	return newRuntime(machine, cfg, new(Arena))
}

func newRuntime(machine Machine, cfg Config, a *Arena) (*Runtime, error) {
	if cfg.Model == nil {
		cfg.Model = perfmodel.NewHistory()
	}
	if cfg.Scheduler == "" {
		cfg.Scheduler = "dmdas"
	}
	if n := machine.NumNodes(); n > maxNodes {
		return nil, fmt.Errorf("starpu: machine has %d memory nodes; the coherence bitset supports %d", n, maxNodes)
	}
	rt := &Runtime{
		machine:    machine,
		cfg:        cfg,
		model:      cfg.Model,
		arena:      a,
		lastWorker: -1,
		estSlots:   make(map[estKey]int32),
		classIDs:   make(map[classKey]int32),
		strIDs:     make(map[string]int32),
		lastClass:  make([]cachedClass, machine.NumWorkers()),
		sizeIDs:    make(map[units.Bytes]int32),
		nodes:      machine.NumNodes(),
	}
	workers := make([]Worker, machine.NumWorkers())
	rt.workers = make([]*Worker, len(workers))
	for i := range workers {
		workers[i] = Worker{ID: i, Info: machine.Worker(i)}
		rt.workers[i] = &workers[i]
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
	t.estSlot = rt.internEstimate(estKey{codelet: t.Codelet, footprint: t.Footprint(), work: t.Work})
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
	rt.admit(t)
	return nil
}

// admit is the tail Submit and SubmitGraph share: t, with its edges in
// place, joins the runtime's task list and goes to the scheduler once
// it has no unfinished dependency.
func (rt *Runtime) admit(t *Task) {
	rt.tasks = append(rt.tasks, t)
	rt.nPending++
	if rt.cfg.Observer != nil {
		rt.cfg.Observer.TaskSubmitted(t)
	}
	if t.ndeps == 0 {
		rt.markReady(t)
	}
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
// (scheduled as an event at the current time so it runs inside the
// simulation loop).
func (rt *Runtime) WakeWorker(i int) {
	w := rt.workers[i]
	if w.dead || w.inflight >= w.pipelineDepth() {
		return
	}
	engine := rt.machine.Engine()
	engine.Schedule(engine.Now(), wakeEvents{rt}, uint64(i))
}

// WakeAll prompts every worker with pipeline room.
func (rt *Runtime) WakeAll() {
	for i := range rt.workers {
		rt.WakeWorker(i)
	}
}

// wakeEvents fires worker wake-ups; the argument is the worker index.
// Workers are woken on every push and completion, and like
// attemptEvents the typed event allocates nothing.
type wakeEvents struct{ rt *Runtime }

func (e wakeEvents) Fire(arg uint64) { e.rt.tryStart(e.rt.workers[arg]) }

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
		_, end := rt.machine.ReserveLink(src, node, stageAt, h.bytes)
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
	// The attempt's events are typed (see attemptEvents): scheduling
	// them allocates nothing.
	engine.Schedule(start, attemptEvents{rt}, attemptArg(t, attemptStart))
	if rt.cfg.Faults != nil {
		if fail, frac := rt.cfg.Faults.TaskAttempt(t, w.ID, int(t.attempt)); fail {
			engine.Schedule(abortTime(start, dur, frac), attemptEvents{rt}, attemptArg(t, attemptFail))
			return
		}
	}
	engine.Schedule(t.EndT, attemptEvents{rt}, attemptArg(t, attemptEnd))
}

// Kinds of attempt event.
const (
	attemptStart = iota // compute begins
	attemptEnd          // compute ends
	attemptFail         // an injected fault aborts the attempt
)

// attemptArg packs an attempt event's argument: the task ID in the high
// 32 bits, the attempt generation (mod 2^30) in the next 30 and the
// kind in the low 2.
func attemptArg(t *Task, kind uint64) uint64 {
	return uint64(t.ID)<<32 | (uint64(t.attempt)&genMask)<<2 | kind
}

// genMask keeps the attempt generation's low 30 bits.
const genMask = 1<<30 - 1

// attemptEvents fires the typed events of task attempts.  A struct
// holding one pointer is stored in an interface without allocating.
type attemptEvents struct{ rt *Runtime }

// Fire runs one attempt event.  Events carry the attempt generation: an
// abort or eviction bumps t.attempt, turning the attempt's still-queued
// events into no-ops.  A live attempt's task is on worker t.WorkerID.
func (e attemptEvents) Fire(arg uint64) {
	rt := e.rt
	t := rt.tasks[arg>>32]
	if uint64(t.attempt)&genMask != (arg>>2)&genMask {
		return
	}
	w := rt.workers[t.WorkerID]
	switch arg & 3 {
	case attemptStart:
		t.powerOn = true
		rt.machine.OnTaskStart(w.ID, t)
		if rt.cfg.Observer != nil {
			rt.cfg.Observer.TaskStarted(w.ID, t)
		}
		// The staging slot is free once compute begins: prefetch the
		// next task's data while this one runs.
		rt.tryStart(w)
	case attemptEnd:
		rt.complete(w, t)
	case attemptFail:
		rt.failAttempt(w, t)
	}
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

	id := rt.workerClass(w.ID)
	class := &rt.classes[id]
	rt.model.RecordAt(rt.modelEntry(t, id), t.Duration())
	// The new sample moved the model's mean for this class string; cached estimates rendered under the old generation
	// are stale, whichever worker kind rendered them.
	rt.classGen[class.str]++

	if rt.cfg.Observer != nil {
		rt.cfg.Observer.TaskCompleted(w.ID, t)
	}

	rt.lastWorker = w.ID
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
	rt.sizeResidency()
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
// the key because the uncalibrated fallback scales with flops, not
// footprint.
type estKey struct {
	codelet   *Codelet
	footprint uint64
	work      units.Flops
}

// estVal is a memoized estimate plus the class-string generation it was
// computed under (see Runtime.estRows), and the performance-model
// handle of the cell's (codelet name, footprint, class string) key.
// The zero value is an empty entry.
type estVal struct {
	model      *perfmodel.Entry
	gen        uint64
	dur        units.Seconds
	filled     bool
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

// internEstimate returns k's estimate slot, registering the key the
// first time it is seen.  Rows start empty and grow on demand.
func (rt *Runtime) internEstimate(k estKey) int32 {
	slot, ok := rt.estSlots[k]
	if !ok {
		slot = int32(len(rt.estRows))
		rt.estSlots[k] = slot
		rt.estRows = append(rt.estRows, nil)
	}
	return slot
}

// flushEstimates empties every memoized estimate; slots stay interned
// and model handles stay cached (they survive History.Invalidate).
func (rt *Runtime) flushEstimates() {
	for _, row := range rt.estRows {
		for i := range row {
			row[i] = estVal{model: row[i].model}
		}
	}
}

// estRow returns slot's estimate row, grown to cover class id.  Rows
// are carved from the arena, whose chunks are sized for every slot at
// the current width, so filling the table costs a few allocations per
// runtime rather than one per slot.  A row is at least one column per
// scoring group wide: workers of a group share a class string, so
// until a power state changes, classes are interned lazily (one per
// newly seen worker) without regrowing the rows.
func (rt *Runtime) estRow(slot, id int32) []estVal {
	row := rt.estRows[slot]
	if int(id) < len(row) {
		return row
	}
	n := max(len(rt.classes), rt.groups)
	est := &rt.arena.estimates
	if est.left < n {
		est.expect(n * len(rt.estRows))
	}
	grown := est.take(n)
	copy(grown, row)
	rt.estRows[slot] = grown
	return grown
}

// modelEntry returns t's performance-model handle under class id.  The
// string key is resolved once per estimate table cell, including under
// policies that ask for no estimate (calibrate, eager): completions
// still record through the handle.
func (rt *Runtime) modelEntry(t *Task, id int32) *perfmodel.Entry {
	v := &rt.estRow(t.estSlot, id)[id]
	if v.model == nil {
		v.model = rt.model.Handle(perfmodel.Key{
			Codelet:     t.Codelet.Name,
			Footprint:   t.Footprint(),
			WorkerClass: rt.classes[id].name,
		})
	}
	return v.model
}

// estimate reports the model's prediction for t on worker i, falling
// back to a work-proportional guess while uncalibrated.  Results are
// memoized per (estimate slot, class id) and trusted only while the
// class string's generation is unchanged.
func (rt *Runtime) estimate(t *Task, i int) (units.Seconds, bool) {
	id := rt.workerClass(i)
	gen := rt.classGen[rt.classes[id].str]
	v := &rt.estRow(t.estSlot, id)[id]
	if v.filled && v.gen == gen {
		return v.dur, v.calibrated
	}
	dur, calibrated := rt.estimateUncached(t, id)
	v.filled, v.gen, v.dur, v.calibrated = true, gen, dur, calibrated
	return dur, calibrated
}

func (rt *Runtime) estimateUncached(t *Task, id int32) (units.Seconds, bool) {
	if d, ok := rt.model.EstimateAt(rt.modelEntry(t, id)); ok {
		return d, true
	}
	// Uncalibrated fallback: a crude flat rate that at least prefers
	// GPUs, as StarPU's eager warm-up would discover quickly.
	rate := 5e9
	if rt.classes[id].kind == CUDAWorker {
		rate = 1e12
	}
	return units.Seconds(float64(t.Work) / rate), false
}

// transferEstimates fills xfer[node] with dmda's data-arrival cost for
// t on every memory node, in one walk of t's handles: the uncontended
// transfer time of each handle missing from the node, weighted by
// transferPenalty.  Each node's sum adds its terms in handle order.
func (rt *Runtime) transferEstimates(xfer []units.Seconds, t *Task) {
	clear(xfer)
	for _, h := range t.Handles {
		row := rt.ttab[h.sizeID]
		if v := uint64(h.valid); v != 0 && v&(v-1) == 0 {
			// A single valid copy is every other node's source.
			src := bits.TrailingZeros64(v)
			for n := range xfer {
				if n != src {
					xfer[n] += row[src*rt.nodes+n]
				}
			}
			continue
		}
		for n := range xfer {
			if !h.valid.has(n) {
				xfer[n] += row[rt.pickSource(h, n)*rt.nodes+n]
			}
		}
	}
	for n, sum := range xfer {
		xfer[n] = units.Seconds(float64(sum) * transferPenalty)
	}
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
