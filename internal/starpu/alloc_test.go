package starpu

import (
	"testing"

	"repro/internal/units"
)

// fixedClassMachine overrides testMachine's WorkerClass (which renders
// a fresh string per call) with preinterned class strings, matching the
// platform package's cached classes, and bounds the GPU memories.  The
// steady-state allocation contract below only holds against a machine
// that — like the real one — does not allocate per class query.
type fixedClassMachine struct {
	*testMachine
	classes []string
}

func (m *fixedClassMachine) WorkerClass(i int) string { return m.classes[i] }

// NodeCapacity bounds both GPU nodes to four tiles, so the run and the
// checks below go through the bounded-memory paths (eviction, pins,
// canFit).
func (m *fixedClassMachine) NodeCapacity(n int) units.Bytes {
	if n == 0 {
		return 0
	}
	return 4 * tileBytes
}

// nopObserver receives every runtime event and keeps nothing.
type nopObserver struct{}

func (nopObserver) TaskSubmitted(*Task)      {}
func (nopObserver) TaskStarted(int, *Task)   {}
func (nopObserver) TaskCompleted(int, *Task) {}
func (nopObserver) SchedDecision(Decision)   {}

// TestNoAllocsSteadyState pins the zero-allocation contract of the
// simulation's inner loops: with the performance model warm, a task
// attempt's start/complete cycle, scoring one ready task against every
// worker (estimate through the class table + transfer estimate +
// locality bytes), the bounded-node memory-fit check, a whole
// dmSched.Push (bare and under an observer), cycling the per-worker
// priority queue through the in-place locality pop, and residency
// updates on a fresh runtime must not allocate.
func TestNoAllocsSteadyState(t *testing.T) {
	m := newTestMachine()
	fm := &fixedClassMachine{
		testMachine: m,
		classes:     []string{"cpu0@t", "cpu1@t", "cuda0@t", "cuda1@t"},
	}
	rt, err := New(fm, Config{Scheduler: "dmdas", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}

	handles := make([]*Handle, 8)
	for i := range handles {
		handles[i] = rt.Register(nil, 8, 64, 64)
	}
	for k := 0; k < 40; k++ {
		task := &Task{
			Codelet:  anyCodelet,
			Handles:  []*Handle{handles[k%8], handles[(k+1)%8]},
			Modes:    []AccessMode{R, RW},
			Work:     1e9,
			Priority: k % 4,
		}
		if err := rt.Submit(task); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}

	// A task attempt's start/complete cycle: startTask schedules the
	// attempt's typed start and end events, and firing them runs the
	// task to completion (power hooks, model record, dependency
	// release).  The last task has no successors, so re-arming it
	// replays the same cycle.
	last := rt.Tasks()[len(rt.Tasks())-1]
	gpu := rt.workers[2]
	engine := fm.Engine()
	attempt := func() {
		last.done = false
		rt.nPending++
		rt.startTask(gpu, last)
		for engine.Step() {
		}
		if !last.done {
			t.Fatal("attempt did not complete")
		}
	}
	attempt()
	allocs := testing.AllocsPerRun(500, attempt)
	if allocs != 0 {
		t.Errorf("task attempt start/complete allocates %.2f times per cycle, want 0", allocs)
	}

	// Scoring kernel: the transfer vector and every worker's estimate
	// for one warm task.
	task := rt.Tasks()[20]
	n := fm.NumWorkers()
	xfer := make([]units.Seconds, fm.NumNodes())
	allocs = testing.AllocsPerRun(500, func() {
		rt.transferEstimates(xfer, task)
		for i := 0; i < n; i++ {
			rt.estimate(task, i)
			rt.localBytes(task, i)
		}
	})
	if allocs != 0 {
		t.Errorf("warm dmdas scoring allocates %.2f times per task, want 0", allocs)
	}

	// Memory-fit check on both bounded GPU nodes.
	if rt.memory[1] == nil || rt.memory[2] == nil {
		t.Fatal("GPU nodes are not bounded")
	}
	allocs = testing.AllocsPerRun(500, func() {
		rt.canFit(task, 1)
		rt.canFit(task, 2)
	})
	if allocs != 0 {
		t.Errorf("bounded-node canFit allocates %.2f times per call pair, want 0", allocs)
	}

	// A whole Push, then taking the task back off its queue.  Saturated
	// pipelines keep WakeWorker from scheduling a poll event, so the
	// cycle leaves the engine untouched.
	sched := rt.sched.(*dmSched)
	for _, w := range rt.workers {
		w.inflight = w.pipelineDepth()
	}
	repop := func() {
		for i := range sched.queues {
			if sched.queues[i].pop() != nil {
				return
			}
		}
		t.Fatal("pushed task is on no queue")
	}
	sched.Push(task)
	repop()
	allocs = testing.AllocsPerRun(500, func() {
		sched.Push(task)
		repop()
	})
	if allocs != 0 {
		t.Errorf("dmdas Push allocates %.2f times per task, want 0", allocs)
	}

	// The same Push observed: Candidates gather in the runtime's reused
	// buffer, so an attached observer adds no allocation either.
	rt.cfg.Observer = nopObserver{}
	sched.Push(task)
	repop()
	allocs = testing.AllocsPerRun(500, func() {
		sched.Push(task)
		repop()
	})
	if allocs != 0 {
		t.Errorf("observed dmdas Push allocates %.2f times per task, want 0", allocs)
	}
	rt.cfg.Observer = nil

	// Ready-queue steady state: push-one/pop-one through the sorted
	// locality-aware pop the dmdas policy uses.
	q := taskQueue{sorted: true}
	q.push(task)
	if q.popBestLocal(rt, 2) == nil {
		t.Fatal("warmup pop returned nil")
	}
	allocs = testing.AllocsPerRun(500, func() {
		q.push(task)
		if q.popBestLocal(rt, 2) == nil {
			t.Fatal("steady-state pop returned nil")
		}
	})
	if allocs != 0 {
		t.Errorf("queue push/pop cycle allocates %.2f times per op, want 0", allocs)
	}

	// The same cycle with a full locality window: the window walk and
	// unlink over a queue holding a long run of equal priorities.
	q = taskQueue{sorted: true}
	for _, tk := range rt.Tasks() {
		if tk.Priority == 0 {
			q.push(tk)
		}
	}
	allocs = testing.AllocsPerRun(500, func() {
		q.push(q.popBestLocal(rt, 2))
	})
	if allocs != 0 {
		t.Errorf("full-window popBestLocal allocates %.2f times per op, want 0", allocs)
	}

	// Residency updates on a fresh runtime: Run sizes each bounded
	// node's per-handle table once, so the first touch, pin and unpin of
	// every handle and the LRU victim scan are index arithmetic.
	fresh, err := New(&fixedClassMachine{testMachine: newTestMachine(), classes: fm.classes}, Config{Scheduler: "dmdas"})
	if err != nil {
		t.Fatal(err)
	}
	handles = handles[:0]
	for i := 0; i < 8; i++ {
		handles = append(handles, fresh.Register(nil, 8, 64, 64))
	}
	if _, err := fresh.Run(); err != nil {
		t.Fatal(err)
	}
	mem := fresh.memory[1]
	if len(mem.res) != len(handles) {
		t.Fatalf("Run sized node 1's residency table to %d entries, want %d", len(mem.res), len(handles))
	}
	allocs = testing.AllocsPerRun(500, func() {
		for _, h := range handles {
			mem.touch(h)
			mem.pin(h)
		}
		mem.victim()
		for _, h := range handles {
			mem.unpin(h)
		}
	})
	if allocs != 0 {
		t.Errorf("touch/pin/unpin allocates %.2f times per cycle, want 0", allocs)
	}
}
