package starpu

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/eventsim"
	"repro/internal/prec"
	"repro/internal/units"
)

// testMachine is a miniature heterogeneous node: 2 CPU workers on the
// host node and 2 GPU workers with private memory nodes, one of them
// "capped" (slower).
type testMachine struct {
	engine *eventsim.Engine
	// rate per worker in flop/s
	rates  []float64
	infos  []WorkerInfo
	links  map[[2]int]*eventsim.Resource
	bw     float64
	starts int32
	ends   int32
}

func newTestMachine() *testMachine {
	m := &testMachine{
		engine: eventsim.NewEngine(),
		rates:  []float64{1e9, 1e9, 20e9, 10e9},
		infos: []WorkerInfo{
			{Name: "cpu0", Kind: CPUWorker, Node: 0},
			{Name: "cpu1", Kind: CPUWorker, Node: 0},
			{Name: "cuda0", Kind: CUDAWorker, Node: 1},
			{Name: "cuda1", Kind: CUDAWorker, Node: 2},
		},
		links: make(map[[2]int]*eventsim.Resource),
		bw:    16e9,
	}
	return m
}

func (m *testMachine) Engine() *eventsim.Engine { return m.engine }
func (m *testMachine) NumWorkers() int          { return len(m.infos) }
func (m *testMachine) Worker(i int) WorkerInfo  { return m.infos[i] }
func (m *testMachine) WorkerClass(i int) string {
	return fmt.Sprintf("%s@test", m.infos[i].Name)
}
func (m *testMachine) CanRun(i int, c *Codelet) bool {
	if m.infos[i].Kind == CUDAWorker {
		return c.CanCUDA
	}
	return c.CanCPU
}
func (m *testMachine) Exec(i int, t *Task) units.Seconds {
	return units.Seconds(float64(t.Work) / m.rates[i])
}
func (m *testMachine) OnTaskStart(i int, t *Task) { atomic.AddInt32(&m.starts, 1) }
func (m *testMachine) OnTaskEnd(i int, t *Task)   { atomic.AddInt32(&m.ends, 1) }
func (m *testMachine) NumNodes() int              { return 3 }
func (m *testMachine) TransferTime(from, to int, b units.Bytes) units.Seconds {
	if from == to {
		return 0
	}
	hops := 1.0
	if from != 0 && to != 0 {
		hops = 2 // device-to-device routes through the host
	}
	return units.Seconds(1e-5 + hops*float64(b)/m.bw)
}
func (m *testMachine) ReserveLink(from, to int, at units.Seconds, b units.Bytes) (units.Seconds, units.Seconds) {
	key := [2]int{from, to}
	if from > to {
		key = [2]int{to, from}
	}
	l, ok := m.links[key]
	if !ok {
		l = eventsim.NewResource(fmt.Sprintf("link%d-%d", key[0], key[1]))
		m.links[key] = l
	}
	return l.Reserve(at, m.TransferTime(from, to, b))
}

var anyCodelet = &Codelet{Name: "k", Precision: prec.Double, CanCPU: true, CanCUDA: true}
var cpuOnly = &Codelet{Name: "kc", Precision: prec.Double, CanCPU: true}
var gpuOnly = &Codelet{Name: "kg", Precision: prec.Double, CanCUDA: true}

func newRT(t *testing.T, sched string) (*Runtime, *testMachine) {
	t.Helper()
	m := newTestMachine()
	rt, err := New(m, Config{Scheduler: sched, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return rt, m
}

func TestUnknownScheduler(t *testing.T) {
	if _, err := New(newTestMachine(), Config{Scheduler: "nope"}); err == nil {
		t.Fatal("unknown scheduler accepted")
	}
}

func TestSubmitValidation(t *testing.T) {
	rt, _ := newRT(t, "eager")
	if err := rt.Submit(&Task{}); err == nil {
		t.Error("task without codelet accepted")
	}
	h := rt.Register(nil, 8, 4, 4)
	if err := rt.Submit(&Task{Codelet: anyCodelet, Handles: []*Handle{h}}); err == nil {
		t.Error("handle/mode mismatch accepted")
	}
	noWhere := &Codelet{Name: "nw"}
	if err := rt.Submit(&Task{Codelet: noWhere}); err == nil {
		t.Error("unrunnable codelet accepted")
	}
}

// TestRWChainSerialises: tasks read-writing one handle must execute
// sequentially in submission order on any scheduler.
func TestRWChainSerialises(t *testing.T) {
	for _, sched := range SchedulerNames() {
		rt, _ := newRT(t, sched)
		h := rt.Register(nil, 8, 64, 64)
		var tasks []*Task
		for i := 0; i < 8; i++ {
			tk := &Task{Codelet: anyCodelet, Handles: []*Handle{h}, Modes: []AccessMode{RW}, Work: 1e8, Tag: fmt.Sprintf("t%d", i)}
			tasks = append(tasks, tk)
			if err := rt.Submit(tk); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := rt.Run(); err != nil {
			t.Fatalf("%s: %v", sched, err)
		}
		for i := 1; i < len(tasks); i++ {
			if tasks[i].StartT < tasks[i-1].EndT-1e-12 {
				t.Errorf("%s: task %d started at %v before predecessor ended at %v",
					sched, i, tasks[i].StartT, tasks[i-1].EndT)
			}
		}
	}
}

// TestIndependentTasksOverlap: with multiple workers, independent tasks
// should run concurrently in virtual time.
func TestIndependentTasksOverlap(t *testing.T) {
	rt, _ := newRT(t, "eager")
	var tasks []*Task
	for i := 0; i < 4; i++ {
		h := rt.Register(nil, 8, 64, 64)
		tk := &Task{Codelet: anyCodelet, Handles: []*Handle{h}, Modes: []AccessMode{RW}, Work: 1e9}
		tasks = append(tasks, tk)
		if err := rt.Submit(tk); err != nil {
			t.Fatal(err)
		}
	}
	makespan, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Serial on the slowest worker would be 4 s; concurrent must beat 2 s.
	if float64(makespan) > 2.0 {
		t.Errorf("makespan %v suggests no overlap", makespan)
	}
	used := map[int]bool{}
	for _, tk := range tasks {
		used[tk.WorkerID] = true
	}
	if len(used) < 2 {
		t.Errorf("only %d workers used", len(used))
	}
}

// TestSequentialConsistencyProperty: in random DAGs, conflicting tasks
// (sharing a handle, at least one writing) never overlap and execute in
// submission order.
func TestSequentialConsistencyProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		for _, sched := range []string{"eager", "ws", "dmdas"} {
			m := newTestMachine()
			rt, err := New(m, Config{Scheduler: sched, Seed: seed})
			if err != nil {
				return false
			}
			var handles []*Handle
			for i := 0; i < 4; i++ {
				handles = append(handles, rt.Register(nil, 8, 32, 32))
			}
			var tasks []*Task
			for i := 0; i < 25; i++ {
				n := rng.Intn(2) + 1
				var hs []*Handle
				var modes []AccessMode
				seen := map[int]bool{}
				for j := 0; j < n; j++ {
					hi := rng.Intn(len(handles))
					if seen[hi] {
						continue
					}
					seen[hi] = true
					hs = append(hs, handles[hi])
					modes = append(modes, []AccessMode{R, W, RW}[rng.Intn(3)])
				}
				tk := &Task{Codelet: anyCodelet, Handles: hs, Modes: modes, Work: units.Flops(1e7 * float64(rng.Intn(9)+1))}
				tasks = append(tasks, tk)
				if err := rt.Submit(tk); err != nil {
					return false
				}
			}
			if _, err := rt.Run(); err != nil {
				return false
			}
			for i := 0; i < len(tasks); i++ {
				for j := i + 1; j < len(tasks); j++ {
					if !conflict(tasks[i], tasks[j]) {
						continue
					}
					// j submitted later; it must start after i ends.
					if tasks[j].StartT < tasks[i].EndT-1e-12 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func conflict(a, b *Task) bool {
	for i, ha := range a.Handles {
		for j, hb := range b.Handles {
			if ha == hb && (a.Modes[i].writes() || b.Modes[j].writes()) {
				return true
			}
		}
	}
	return false
}

// TestDmPrefersFastWorker: with a calibrated model, dm must place the
// bulk of independent equal tasks on the fastest (GPU) workers.
func TestDmPrefersFastWorker(t *testing.T) {
	m := newTestMachine()
	rt, err := New(m, Config{Scheduler: "dm"})
	if err != nil {
		t.Fatal(err)
	}
	// Calibrate: one task per worker class via direct model seeding.
	submit := func(n int) []*Task {
		var out []*Task
		for i := 0; i < n; i++ {
			h := rt.Register(nil, 8, 128, 128)
			tk := &Task{Codelet: anyCodelet, Handles: []*Handle{h}, Modes: []AccessMode{RW}, Work: 1e9}
			out = append(out, tk)
			if err := rt.Submit(tk); err != nil {
				t.Fatal(err)
			}
		}
		return out
	}
	// Warm-up pass records real durations per class.
	submit(16)
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	tasks := submit(40)
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	gpu := 0
	for _, tk := range tasks {
		if rt.Workers()[tk.WorkerID].Info.Kind == CUDAWorker {
			gpu++
		}
	}
	if gpu < 30 {
		t.Errorf("dm placed only %d/40 tasks on GPUs", gpu)
	}
	// The faster GPU (cuda0, 20 Gflop/s) should get more than cuda1.
	if rt.Workers()[2].TasksRun() <= rt.Workers()[3].TasksRun() {
		t.Errorf("fast GPU ran %d tasks, slow GPU %d — expected fast > slow",
			rt.Workers()[2].TasksRun(), rt.Workers()[3].TasksRun())
	}
}

// TestDmdasPriorityOrder: on a single eligible worker, ready tasks run
// highest priority first.
func TestDmdasPriorityOrder(t *testing.T) {
	m := newTestMachine()
	// Restrict to one GPU by making the codelet GPU-only and disabling
	// one GPU through rates (rate equality doesn't matter: dm picks
	// min-ECT, so make cuda1 unusable via CanRun).
	rt, err := New(m, Config{Scheduler: "dmdas"})
	if err != nil {
		t.Fatal(err)
	}
	// Gate: a root task all others depend on, so all are pushed while
	// the root still runs, letting the sorted queue take effect.
	gate := rt.Register(nil, 8, 1, 1)
	root := &Task{Codelet: cpuOnly, Handles: []*Handle{gate}, Modes: []AccessMode{RW}, Work: 5e9, Tag: "root"}
	if err := rt.Submit(root); err != nil {
		t.Fatal(err)
	}
	prios := []int{3, 9, 1, 7, 5}
	var tasks []*Task
	for _, p := range prios {
		tk := &Task{
			Codelet:  gpuOnly,
			Handles:  []*Handle{gate},
			Modes:    []AccessMode{R},
			Work:     1e9,
			Priority: p,
			Tag:      fmt.Sprintf("p%d", p),
		}
		tasks = append(tasks, tk)
		if err := rt.Submit(tk); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	// Group by worker and check per-worker start order is by priority.
	byWorker := map[int][]*Task{}
	for _, tk := range tasks {
		byWorker[tk.WorkerID] = append(byWorker[tk.WorkerID], tk)
	}
	for w, ts := range byWorker {
		for i := 1; i < len(ts); i++ {
			a, b := ts[i-1], ts[i]
			if a.StartT < b.StartT && a.Priority < b.Priority {
				t.Errorf("worker %d ran priority %d before %d", w, a.Priority, b.Priority)
			}
		}
	}
}

// TestCalibratePopulatesAllClasses: the calibrate policy must sample
// every (codelet, footprint) on every eligible worker class.
func TestCalibratePopulatesAllClasses(t *testing.T) {
	m := newTestMachine()
	rt, err := New(m, Config{Scheduler: "calibrate"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		h := rt.Register(nil, 8, 64, 64)
		if err := rt.Submit(&Task{Codelet: anyCodelet, Handles: []*Handle{h}, Modes: []AccessMode{RW}, Work: 1e8}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	// All four worker classes must have run at least one task.
	for _, w := range rt.Workers() {
		if w.TasksRun() == 0 {
			t.Errorf("worker %s got no calibration samples", w.Info.Name)
		}
	}
	if rt.Model().Len() == 0 {
		t.Error("model is empty after calibration")
	}
}

// TestCoherenceInvariant: after the run, every handle has at least one
// valid copy, and a handle written by its last accessor is valid
// exactly on that worker's node.
func TestCoherenceInvariant(t *testing.T) {
	rt, _ := newRT(t, "dmda")
	h := rt.Register(nil, 8, 256, 256)
	reader := &Task{Codelet: gpuOnly, Handles: []*Handle{h}, Modes: []AccessMode{R}, Work: 1e9}
	writer := &Task{Codelet: gpuOnly, Handles: []*Handle{h}, Modes: []AccessMode{RW}, Work: 1e9}
	if err := rt.Submit(reader); err != nil {
		t.Fatal(err)
	}
	if err := rt.Submit(writer); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	node := rt.Workers()[writer.WorkerID].Info.Node
	valid := h.ValidNodes()
	if len(valid) != 1 || valid[0] != node {
		t.Errorf("after write on node %d, valid set = %v", node, valid)
	}
	if writer.TransferBytes == 0 && reader.WorkerID != writer.WorkerID {
		// writer on a different device must have pulled the data
		t.Log("note: writer reused reader's node (allowed)")
	}
}

// TestTransferAccounting: a GPU task reading host data must account
// transferred bytes; a second read on the same node must not.
func TestTransferAccounting(t *testing.T) {
	rt, _ := newRT(t, "eager")
	h := rt.Register(nil, 8, 512, 512) // 2 MiB
	t1 := &Task{Codelet: gpuOnly, Handles: []*Handle{h}, Modes: []AccessMode{R}, Work: 1e9}
	if err := rt.Submit(t1); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if t1.TransferBytes != h.Bytes() {
		t.Errorf("first GPU read transferred %v, want %v", t1.TransferBytes, h.Bytes())
	}
	if !h.ValidOn(0) {
		t.Error("read invalidated the host copy")
	}
}

// TestPowerHooksBalanced: every start gets an end.
func TestPowerHooksBalanced(t *testing.T) {
	rt, m := newRT(t, "ws")
	for i := 0; i < 10; i++ {
		h := rt.Register(nil, 8, 16, 16)
		if err := rt.Submit(&Task{Codelet: anyCodelet, Handles: []*Handle{h}, Modes: []AccessMode{RW}, Work: 1e8}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if m.starts != 10 || m.ends != 10 {
		t.Errorf("starts=%d ends=%d, want 10/10", m.starts, m.ends)
	}
}

// TestRunNumericOrdering: numeric execution respects dependencies.
func TestRunNumericOrdering(t *testing.T) {
	rt, _ := newRT(t, "eager")
	h := rt.Register(nil, 8, 1, 1)
	x := 1.0
	mul := &Task{Codelet: anyCodelet, Handles: []*Handle{h}, Modes: []AccessMode{RW}, Work: 1,
		Func: func() error { x *= 2; return nil }}
	add := &Task{Codelet: anyCodelet, Handles: []*Handle{h}, Modes: []AccessMode{RW}, Work: 1,
		Func: func() error { x += 3; return nil }}
	if err := rt.Submit(mul); err != nil {
		t.Fatal(err)
	}
	if err := rt.Submit(add); err != nil {
		t.Fatal(err)
	}
	if err := rt.RunNumeric(4); err != nil {
		t.Fatal(err)
	}
	if x != 5 {
		t.Errorf("x = %v, want 5 (mul-then-add order)", x)
	}
}

func TestRunNumericParallelism(t *testing.T) {
	rt, _ := newRT(t, "eager")
	var counter int64
	var peak int64
	for i := 0; i < 32; i++ {
		h := rt.Register(nil, 8, 1, 1)
		if err := rt.Submit(&Task{Codelet: anyCodelet, Handles: []*Handle{h}, Modes: []AccessMode{RW}, Work: 1,
			Func: func() error {
				c := atomic.AddInt64(&counter, 1)
				for {
					p := atomic.LoadInt64(&peak)
					if c <= p || atomic.CompareAndSwapInt64(&peak, p, c) {
						break
					}
				}
				atomic.AddInt64(&counter, -1)
				return nil
			}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.RunNumeric(8); err != nil {
		t.Fatal(err)
	}
	if peak < 1 {
		t.Error("no tasks ran")
	}
}

func TestRunNumericError(t *testing.T) {
	rt, _ := newRT(t, "eager")
	h := rt.Register(nil, 8, 1, 1)
	if err := rt.Submit(&Task{Codelet: anyCodelet, Handles: []*Handle{h}, Modes: []AccessMode{RW}, Work: 1, Tag: "boom",
		Func: func() error { return fmt.Errorf("kaput") }}); err != nil {
		t.Fatal(err)
	}
	err := rt.RunNumeric(2)
	if err == nil {
		t.Fatal("numeric error not propagated")
	}
}

// TestAllSchedulersCompleteDAG: a diamond DAG completes under every
// policy and all tasks get timing records.
func TestAllSchedulersCompleteDAG(t *testing.T) {
	for _, sched := range SchedulerNames() {
		rt, _ := newRT(t, sched)
		a := rt.Register(nil, 8, 64, 64)
		b := rt.Register(nil, 8, 64, 64)
		c := rt.Register(nil, 8, 64, 64)
		tasks := []*Task{
			{Codelet: anyCodelet, Handles: []*Handle{a}, Modes: []AccessMode{W}, Work: 1e8, Tag: "src"},
			{Codelet: anyCodelet, Handles: []*Handle{a, b}, Modes: []AccessMode{R, W}, Work: 1e8, Tag: "left"},
			{Codelet: anyCodelet, Handles: []*Handle{a, c}, Modes: []AccessMode{R, W}, Work: 1e8, Tag: "right"},
			{Codelet: anyCodelet, Handles: []*Handle{b, c}, Modes: []AccessMode{R, RW}, Work: 1e8, Tag: "sink"},
		}
		for _, tk := range tasks {
			if err := rt.Submit(tk); err != nil {
				t.Fatalf("%s: %v", sched, err)
			}
		}
		ms, err := rt.Run()
		if err != nil {
			t.Fatalf("%s: %v", sched, err)
		}
		if ms <= 0 {
			t.Errorf("%s: zero makespan", sched)
		}
		for _, tk := range tasks {
			if tk.WorkerID < 0 || tk.EndT <= tk.StartT {
				t.Errorf("%s: task %q lacks timing: worker=%d [%v,%v]", sched, tk.Tag, tk.WorkerID, tk.StartT, tk.EndT)
			}
		}
		// sink must start after both branches.
		if tasks[3].StartT < tasks[1].EndT-1e-12 || tasks[3].StartT < tasks[2].EndT-1e-12 {
			t.Errorf("%s: sink violated diamond dependencies", sched)
		}
	}
}

func TestWriteOnlyAccessSkipsTransfer(t *testing.T) {
	rt, _ := newRT(t, "eager")
	h := rt.Register(nil, 8, 1024, 1024) // 8 MiB on the host
	wTask := &Task{Codelet: gpuOnly, Handles: []*Handle{h}, Modes: []AccessMode{W}, Work: 1e8, Tag: "w"}
	if err := rt.Submit(wTask); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if wTask.TransferBytes != 0 {
		t.Errorf("write-only access transferred %v", wTask.TransferBytes)
	}
	// The written copy is the sole owner on the writer's node.
	node := rt.Workers()[wTask.WorkerID].Info.Node
	valid := h.ValidNodes()
	if len(valid) != 1 || valid[0] != node {
		t.Errorf("after W, valid set = %v, want {%d}", valid, node)
	}
	// A subsequent reader elsewhere must fetch from the writer.
	rTask := &Task{Codelet: cpuOnly, Handles: []*Handle{h}, Modes: []AccessMode{R}, Work: 1e8, Tag: "r"}
	if err := rt.Submit(rTask); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if rTask.TransferBytes != h.Bytes() {
		t.Errorf("reader transferred %v, want %v", rTask.TransferBytes, h.Bytes())
	}
}
