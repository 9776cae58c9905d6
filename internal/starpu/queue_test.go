package starpu

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/units"
)

func TestTaskQueueFIFO(t *testing.T) {
	var q taskQueue
	for i := 0; i < 5; i++ {
		q.push(&Task{ID: i})
	}
	if q.len() != 5 {
		t.Fatalf("len = %d", q.len())
	}
	for i := 0; i < 5; i++ {
		if got := q.pop(); got.ID != i {
			t.Fatalf("pop %d returned task %d", i, got.ID)
		}
	}
	if q.pop() != nil {
		t.Error("empty pop should return nil")
	}
}

func TestTaskQueueSortedByPriority(t *testing.T) {
	q := taskQueue{sorted: true}
	prios := []int{2, 9, 4, 9, 1, 7}
	for i, p := range prios {
		q.push(&Task{ID: i, Priority: p})
	}
	var got []int
	for q.len() > 0 {
		got = append(got, q.pop().Priority)
	}
	if !sort.IsSorted(sort.Reverse(sort.IntSlice(got))) {
		t.Errorf("priorities not descending: %v", got)
	}
}

func TestTaskQueueEqualPriorityFIFO(t *testing.T) {
	q := taskQueue{sorted: true}
	for i := 0; i < 6; i++ {
		q.push(&Task{ID: i, Priority: 5})
	}
	for i := 0; i < 6; i++ {
		if got := q.pop(); got.ID != i {
			t.Fatalf("equal-priority pop %d returned %d (not FIFO)", i, got.ID)
		}
	}
}

func TestTaskQueueSortedProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		q := taskQueue{sorted: true}
		n := rng.Intn(40) + 1
		for i := 0; i < n; i++ {
			q.push(&Task{ID: i, Priority: rng.Intn(8)})
		}
		prev := 1 << 30
		for q.len() > 0 {
			tk := q.pop()
			if tk.Priority > prev {
				return false
			}
			prev = tk.Priority
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPopBestLocalPrefersResidentData(t *testing.T) {
	m := newTestMachine()
	rt, err := New(m, Config{Scheduler: "dmdas"})
	if err != nil {
		t.Fatal(err)
	}
	local := rt.Register(nil, 8, 512, 512)
	remote := rt.Register(nil, 8, 512, 512)
	// Make `local` resident on node 1 (cuda0's memory).
	local.valid.set(1)

	q := taskQueue{sorted: true}
	farTask := &Task{ID: 0, Priority: 5, Handles: []*Handle{remote}, Modes: []AccessMode{R}}
	nearTask := &Task{ID: 1, Priority: 5, Handles: []*Handle{local}, Modes: []AccessMode{R}}
	q.push(farTask)
	q.push(nearTask)

	got := q.popBestLocal(rt, 2) // worker 2 = cuda0 on node 1
	if got != nearTask {
		t.Errorf("popBestLocal returned task %d, want the data-local task", got.ID)
	}
	// Higher priority still wins over locality.
	q2 := taskQueue{sorted: true}
	urgent := &Task{ID: 2, Priority: 9, Handles: []*Handle{remote}, Modes: []AccessMode{R}}
	q2.push(nearTask)
	q2.push(urgent)
	if got := q2.popBestLocal(rt, 2); got != urgent {
		t.Errorf("priority should dominate locality, got task %d", got.ID)
	}
}

// refQueue is the ready-queue oracle: the queued tasks in push order
// in a plain slice.  A pop takes the first task of the maximum
// priority (every task counts as priority 0 when unsorted).
type refQueue struct {
	sorted bool
	tasks  []*Task
}

func (q *refQueue) prio(t *Task) int {
	if q.sorted {
		return t.Priority
	}
	return 0
}

// window reports the positions of the first up-to-8 tasks of the
// maximum priority, in push order.
func (q *refQueue) window() []int {
	var out []int
	for i, t := range q.tasks {
		switch {
		case len(out) == 0 || q.prio(t) > q.prio(q.tasks[out[0]]):
			out = append(out[:0], i)
		case q.prio(t) == q.prio(q.tasks[out[0]]) && len(out) < 8:
			out = append(out, i)
		}
	}
	return out
}

func (q *refQueue) take(i int) *Task {
	t := q.tasks[i]
	q.tasks = slices.Delete(q.tasks, i, i+1)
	return t
}

func (q *refQueue) pop() *Task {
	w := q.window()
	if len(w) == 0 {
		return nil
	}
	return q.take(w[0])
}

// popBestLocalRef is dmdas's locality pop over the oracle: the window's
// strict maximum of bytes resident on the worker's node, first of
// equals winning.
func (q *refQueue) popBestLocalRef(rt *Runtime, workerID int) *Task {
	w := q.window()
	if len(w) == 0 {
		return nil
	}
	best, bestLocal := w[0], rt.localBytes(q.tasks[w[0]], workerID)
	for _, i := range w[1:] {
		if lb := rt.localBytes(q.tasks[i], workerID); lb > bestLocal {
			best, bestLocal = i, lb
		}
	}
	return q.take(best)
}

// compareReadyQueue runs an operation schedule through a taskQueue and
// the oracle in lock step — pushes over few priorities (long runs,
// often longer than the window), plain and locality pops, handle
// residency shuffles and full drains — failing at the first pop that
// differs.  The first two bytes pick sortedness and the priority
// count; an exhausted schedule reads as zeros.  It reports how many
// locality pops took a task other than the plain pop order's head.
func compareReadyQueue(t *testing.T, rt *Runtime, ops []byte) (localityWins int) {
	next := func(n int) int {
		if len(ops) == 0 {
			return 0
		}
		v := int(ops[0]) % n
		ops = ops[1:]
		return v
	}
	sorted := next(4) != 0
	prios := 1 + next(3)
	handles := make([]*Handle, 10)
	for i := range handles {
		handles[i] = &Handle{id: int32(i), bytes: units.Bytes((1 + next(4)) * tileBytes)}
	}
	shuffle := func() {
		for _, h := range handles {
			h.valid = nodeSet(next(8))
		}
	}
	shuffle()
	got, ref := taskQueue{sorted: sorted}, refQueue{sorted: sorted}
	same := func(step int, what string, a, b []*Task) {
		t.Helper()
		if !slices.Equal(a, b) {
			t.Fatalf("step %d: %s returned %v, oracle %v", step, what, a, b)
		}
	}
	id := 0
	for step := 0; len(ops) > 0; step++ {
		switch r := next(20); {
		case r < 10:
			tk := &Task{ID: id, Priority: next(prios)}
			id++
			for k := next(3); k >= 0; k-- {
				tk.Handles = append(tk.Handles, handles[next(len(handles))])
			}
			got.push(tk)
			ref.tasks = append(ref.tasks, tk)
		case r < 16:
			var head *Task
			if w := ref.window(); len(w) > 0 {
				head = ref.tasks[w[0]]
			}
			w := next(4)
			a, b := got.popBestLocal(rt, w), ref.popBestLocalRef(rt, w)
			same(step, "popBestLocal", []*Task{a}, []*Task{b})
			if a != head {
				localityWins++
			}
		case r < 18:
			same(step, "pop", []*Task{got.pop()}, []*Task{ref.pop()})
		case r < 19:
			shuffle()
		default:
			var b []*Task
			for tk := ref.pop(); tk != nil; tk = ref.pop() {
				b = append(b, tk)
			}
			same(step, "drainAll", got.drainAll(), b)
		}
		if got.len() != len(ref.tasks) {
			t.Fatalf("step %d: len %d, oracle %d", step, got.len(), len(ref.tasks))
		}
	}
	return localityWins
}

// TestPopBestLocalMatchesReference drives the run-linked queue and the
// oracle through seeded operation schedules and requires the same task
// at every pop; the schedules must exercise the locality tie-break.
func TestPopBestLocalMatchesReference(t *testing.T) {
	rt, _ := newRT(t, "dmdas")
	var localityWins int
	for seed := int64(0); seed < 60; seed++ {
		ops := make([]byte, 1200)
		rand.New(rand.NewSource(seed)).Read(ops)
		localityWins += compareReadyQueue(t, rt, ops)
	}
	if localityWins == 0 {
		t.Fatal("degenerate run: locality never overrode the plain pop order")
	}
}

// FuzzReadyQueue runs fuzzed operation schedules through the queue and
// the oracle.
func FuzzReadyQueue(f *testing.F) {
	f.Add([]byte{1, 2, 0, 0, 0, 0, 3, 1, 0, 0, 5, 0, 1, 0, 12, 1, 19})
	f.Add([]byte{0, 0, 1, 2, 3, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 16, 17, 19})
	f.Add([]byte{3, 1, 7, 7, 7, 7, 2, 1, 1, 2, 1, 1, 3, 0, 2, 12, 2, 18, 12, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4096 {
			return
		}
		rt, _ := newRT(t, "dmdas")
		compareReadyQueue(t, rt, ops)
	})
}

// TestTaskFitsSizeClass: a cell's whole DAG is live at once and the
// arena's chunks hold tasks back to back, so every Task byte is
// per-task storage.  A field added without repacking must not silently
// grow every task past the 224 bytes Task takes today.
func TestTaskFitsSizeClass(t *testing.T) {
	if sz := unsafe.Sizeof(Task{}); sz > 224 {
		t.Errorf("Task is %d bytes, want at most 224", sz)
	}
}
