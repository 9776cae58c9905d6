package starpu

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

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

// popBestLocalRef is the pop-8/push-7 formulation popBestLocal replaced:
// pop the top-priority window off the heap, keep the strict locality
// maximum (first of equals wins) and push the losers back with their
// original sequence numbers.
func popBestLocalRef(q *taskQueue, rt *Runtime, workerID int) *Task {
	if len(q.heap) == 0 {
		return nil
	}
	const window = 8
	top := q.heap.popMin()
	bestItem, bestLocal := top, rt.localBytes(top.t, workerID)
	var rest []heapItem
	for len(q.heap) > 0 && len(rest) < window-1 && q.heap[0].prio == top.prio {
		it := q.heap.popMin()
		if lb := rt.localBytes(it.t, workerID); lb > bestLocal {
			rest = append(rest, bestItem)
			bestItem, bestLocal = it, lb
		} else {
			rest = append(rest, it)
		}
	}
	for _, it := range rest {
		q.heap.push(it)
	}
	return bestItem.t
}

// TestPopBestLocalMatchesReference drives the in-place pop and the
// reference through identical seeded push/pop sequences — few
// priorities (long tie runs, often longer than the window), random
// handle residency that changes between steps — and requires the same
// task at every pop and the same order from the final drain.
func TestPopBestLocalMatchesReference(t *testing.T) {
	rt, _ := newRT(t, "dmdas")
	var localityWins int
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		handles := make([]*Handle, 10)
		for i := range handles {
			handles[i] = &Handle{id: int32(i), bytes: units.Bytes((1 + rng.Intn(4)) * tileBytes)}
		}
		shuffle := func() {
			for _, h := range handles {
				h.valid = nodeSet(rng.Intn(8))
			}
		}
		shuffle()
		prios := 1 + rng.Intn(3)
		got, ref := taskQueue{sorted: true}, taskQueue{sorted: true}
		id := 0
		for step := 0; step < 400; step++ {
			switch r := rng.Intn(10); {
			case r < 5:
				tk := &Task{ID: id, Priority: rng.Intn(prios)}
				id++
				for k := rng.Intn(3); k >= 0; k-- {
					tk.Handles = append(tk.Handles, handles[rng.Intn(len(handles))])
				}
				got.push(tk)
				ref.push(tk)
			case r < 9:
				var head *Task
				if ref.len() > 0 {
					head = ref.heap[0].t
				}
				w := rng.Intn(4)
				a, b := got.popBestLocal(rt, w), popBestLocalRef(&ref, rt, w)
				if a != b {
					t.Fatalf("seed %d step %d: in-place pop returned %v, reference %v", seed, step, a, b)
				}
				if a != head {
					localityWins++
				}
			default:
				shuffle()
			}
			if got.len() != ref.len() {
				t.Fatalf("seed %d step %d: len %d, reference %d", seed, step, got.len(), ref.len())
			}
		}
		a, b := got.drainAll(), ref.drainAll()
		if len(a) != len(b) {
			t.Fatalf("seed %d: drained %d tasks, reference %d", seed, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("seed %d: drain position %d is task %d, reference %d", seed, i, a[i].ID, b[i].ID)
			}
		}
	}
	if localityWins == 0 {
		t.Fatal("degenerate run: locality never overrode the plain pop order")
	}
}

// TestTaskHeapRemoveAt removes entries from random positions of random
// heaps and checks the heap order and the held set after every removal:
// the entry moved into the hole may need to sift either way.
func TestTaskHeapRemoveAt(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 200; round++ {
		var h taskHeap
		held := map[int]bool{}
		for seq := 0; seq < 1+rng.Intn(40); seq++ {
			h.push(heapItem{t: &Task{}, seq: seq, prio: rng.Intn(4)})
			held[seq] = true
		}
		for len(h) > 0 {
			i := rng.Intn(len(h))
			delete(held, h[i].seq)
			h.removeAt(i)
			for j := 1; j < len(h); j++ {
				if h.less(j, (j-1)/2) {
					t.Fatalf("round %d: entry %d sorts before its parent after removeAt(%d)", round, j, i)
				}
			}
			if len(h) != len(held) {
				t.Fatalf("round %d: %d entries left, want %d", round, len(h), len(held))
			}
			for _, it := range h {
				if !held[it.seq] {
					t.Fatalf("round %d: removed entry %d still held", round, it.seq)
				}
			}
		}
	}
}
