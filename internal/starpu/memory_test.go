package starpu

import (
	"container/list"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/units"
)

func newSeededRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// cappedMachine bounds the GPU nodes of testMachine to a small size so
// eviction triggers quickly.
type cappedMachine struct {
	*testMachine
	capacity units.Bytes
}

func (m *cappedMachine) NodeCapacity(n int) units.Bytes {
	if n == 0 {
		return 0
	}
	return m.capacity
}

// tileBytes is one 64x64 float64 handle.
const tileBytes = 64 * 64 * 8

func newCappedRT(t *testing.T, tiles int) (*Runtime, *cappedMachine) {
	t.Helper()
	m := &cappedMachine{testMachine: newTestMachine(), capacity: units.Bytes(tiles * tileBytes)}
	rt, err := New(m, Config{Scheduler: "eager"})
	if err != nil {
		t.Fatal(err)
	}
	return rt, m
}

func TestEvictionKeepsNodeUnderCapacity(t *testing.T) {
	rt, m := newCappedRT(t, 3) // room for 3 tiles per GPU
	// 12 read-only tiles streamed through one GPU-only codelet each.
	for i := 0; i < 12; i++ {
		h := rt.Register(nil, 8, 64, 64)
		if err := rt.Submit(&Task{Codelet: gpuOnly, Handles: []*Handle{h}, Modes: []AccessMode{R}, Work: 1e8,
			Tag: fmt.Sprintf("t%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	for n := 1; n <= 2; n++ {
		if used := rt.NodeUsage(n); used > m.capacity {
			t.Errorf("node %d used %v > capacity %v", n, used, m.capacity)
		}
	}
	if rt.MemoryStats().Evictions == 0 {
		t.Error("streaming 12 tiles through 3-tile nodes caused no evictions")
	}
	// Read-only data still has its host copy: no writebacks needed.
	if rt.MemoryStats().WritebackBytes != 0 {
		t.Errorf("read-only streaming wrote back %v", rt.MemoryStats().WritebackBytes)
	}
}

func TestEvictionWritesBackLastCopy(t *testing.T) {
	rt, _ := newCappedRT(t, 2)
	// Write tiles on the GPU (sole owner), then stream unrelated reads
	// to force their eviction: last copies must be written back, never
	// lost.
	var written []*Handle
	for i := 0; i < 2; i++ {
		h := rt.Register(nil, 8, 64, 64)
		written = append(written, h)
		if err := rt.Submit(&Task{Codelet: gpuOnly, Handles: []*Handle{h}, Modes: []AccessMode{RW}, Work: 1e8}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		h := rt.Register(nil, 8, 64, 64)
		if err := rt.Submit(&Task{Codelet: gpuOnly, Handles: []*Handle{h}, Modes: []AccessMode{R}, Work: 1e8}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if rt.MemoryStats().WritebackBytes == 0 {
		t.Error("no writebacks despite evicting sole GPU copies")
	}
	for i, h := range written {
		if len(h.ValidNodes()) == 0 {
			t.Errorf("written handle %d lost all copies", i)
		}
	}
}

func TestOversizedHandlePanics(t *testing.T) {
	rt, _ := newCappedRT(t, 1)
	h := rt.Register(nil, 8, 256, 256) // 512 KiB > 1-tile capacity
	if err := rt.Submit(&Task{Codelet: gpuOnly, Handles: []*Handle{h}, Modes: []AccessMode{R}, Work: 1e8}); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("oversized working set did not panic (CUDA OOM equivalent)")
		}
	}()
	rt.Run()
}

func TestPinsProtectRunningTasks(t *testing.T) {
	// Capacity of 2 tiles; tasks use 2 handles each.  The pipeline may
	// stage a second task while the first runs: the first task's tiles
	// must never be evicted mid-run.  Completion without panic and under
	// capacity is the invariant.
	rt, m := newCappedRT(t, 2)
	for i := 0; i < 6; i++ {
		a := rt.Register(nil, 8, 64, 64)
		b := rt.Register(nil, 8, 64, 64)
		if err := rt.Submit(&Task{Codelet: gpuOnly, Handles: []*Handle{a, b}, Modes: []AccessMode{R, RW}, Work: 1e8}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	for n := 1; n <= 2; n++ {
		if used := rt.NodeUsage(n); used > m.capacity {
			t.Errorf("node %d over capacity: %v", n, used)
		}
	}
}

func TestUnboundedMachineHasNoMemoryTracking(t *testing.T) {
	rt, _ := newRT(t, "eager") // plain testMachine: no CapacityModel
	h := rt.Register(nil, 8, 4096, 4096)
	if err := rt.Submit(&Task{Codelet: gpuOnly, Handles: []*Handle{h}, Modes: []AccessMode{R}, Work: 1e8}); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if rt.MemoryStats().Evictions != 0 || rt.NodeUsage(1) != 0 {
		t.Error("unbounded machine tracked memory")
	}
}

// TestEvictionStressNeverLosesData: random mixed R/RW streams through
// tightly bounded nodes must terminate with every handle still valid
// somewhere and capacity respected throughout.
func TestEvictionStressNeverLosesData(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		m := &cappedMachine{testMachine: newTestMachine(), capacity: units.Bytes(4 * tileBytes)}
		rt, err := New(m, Config{Scheduler: "ws", Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		rng := newSeededRand(seed)
		handles := make([]*Handle, 16)
		for i := range handles {
			handles[i] = rt.Register(nil, 8, 64, 64)
		}
		for i := 0; i < 120; i++ {
			h := handles[rng.Intn(len(handles))]
			mode := []AccessMode{R, RW, W}[rng.Intn(3)]
			if err := rt.Submit(&Task{Codelet: anyCodelet, Handles: []*Handle{h}, Modes: []AccessMode{mode}, Work: 1e7}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := rt.Run(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for i, h := range handles {
			if len(h.ValidNodes()) == 0 {
				t.Fatalf("seed %d: handle %d lost all copies", seed, i)
			}
		}
		for n := 1; n <= 2; n++ {
			if rt.NodeUsage(n) > m.capacity {
				t.Fatalf("seed %d: node %d over capacity", seed, n)
			}
		}
	}
}

// refLRU is the reference residency model nodeMemory replaced: a
// container/list LRU (front = least recent) with map-held list elements
// and pin counts.  canFit and pinned are answered by walking the whole
// list, the formulas the incremental counters must reproduce.
type refLRU struct {
	capacity units.Bytes
	used     units.Bytes
	lru      *list.List
	elems    map[*Handle]*list.Element
	pins     map[*Handle]int
}

func newRefLRU(capacity units.Bytes) *refLRU {
	return &refLRU{capacity: capacity, lru: list.New(),
		elems: make(map[*Handle]*list.Element), pins: make(map[*Handle]int)}
}

func (r *refLRU) touch(h *Handle) {
	if e, ok := r.elems[h]; ok {
		r.lru.MoveToBack(e)
		return
	}
	r.elems[h] = r.lru.PushBack(h)
	r.used += h.bytes
}

func (r *refLRU) drop(h *Handle) {
	if e, ok := r.elems[h]; ok {
		r.lru.Remove(e)
		delete(r.elems, h)
		r.used -= h.bytes
	}
}

func (r *refLRU) pin(h *Handle) { r.pins[h]++ }

func (r *refLRU) unpin(h *Handle) {
	switch n := r.pins[h]; {
	case n > 1:
		r.pins[h] = n - 1
	case n == 1:
		delete(r.pins, h)
	}
}

func (r *refLRU) victim() *Handle {
	for e := r.lru.Front(); e != nil; e = e.Next() {
		if h := e.Value.(*Handle); r.pins[h] == 0 {
			return h
		}
	}
	return nil
}

// pinned sums the resident bytes whose pin count is > 0.
func (r *refLRU) pinned() units.Bytes {
	var sum units.Bytes
	for e := r.lru.Front(); e != nil; e = e.Next() {
		if h := e.Value.(*Handle); r.pins[h] > 0 {
			sum += h.bytes
		}
	}
	return sum
}

// canFit sums every resident, unpinned byte outside the working set.
func (r *refLRU) canFit(hs []*Handle) bool {
	var needed units.Bytes
	for i, h := range hs {
		if containsHandle(hs[:i], h) {
			continue
		}
		if _, resident := r.elems[h]; !resident {
			needed += h.bytes
		}
	}
	free := r.capacity - r.used
	var evictable units.Bytes
	for e := r.lru.Front(); e != nil; e = e.Next() {
		h := e.Value.(*Handle)
		if !containsHandle(hs, h) && r.pins[h] == 0 {
			evictable += h.bytes
		}
	}
	return needed <= free+evictable
}

// order lists the resident handles least recent first.
func (r *refLRU) order() []*Handle {
	var out []*Handle
	for e := r.lru.Front(); e != nil; e = e.Next() {
		out = append(out, e.Value.(*Handle))
	}
	return out
}

// lruOrder lists nodeMemory's resident handles least recent first.
func lruOrder(m *nodeMemory) []*Handle {
	var out []*Handle
	for id := m.head; id >= 0; id = m.res[id].next {
		out = append(out, m.res[id].h)
	}
	return out
}

// TestCanFitMatchesLRUWalk drives one bounded node and the container/list
// reference through the same seeded random sequences of the operations
// the runtime performs — staging a working set (evict, touch, pin; a
// handle may repeat within a task, and is sometimes pinned before its
// first touch), releasing a task's pins, dropping a copy a remote write
// invalidated (pinned or not), and bare LRU evictions — and after every
// step checks the LRU order, victim, used and pinned bytes against the
// reference, and the incremental canFit against the reference walk.
func TestCanFitMatchesLRUWalk(t *testing.T) {
	var fits, misses, pinFirst, droppedPinned int
	for seed := int64(0); seed < 40; seed++ {
		rng := newSeededRand(seed)
		handles := make([]*Handle, 12)
		for i := range handles {
			// Sparse ids, so the per-handle table grows mid-run.
			handles[i] = &Handle{id: int32(3*i + rng.Intn(3)), bytes: units.Bytes((1 + rng.Intn(3)) * tileBytes)}
		}
		m := newNodeMemory(1, units.Bytes(8*tileBytes))
		ref := newRefLRU(m.capacity)
		seen := make(map[*Handle]bool)
		workingSet := func() []*Handle {
			hs := make([]*Handle, 1+rng.Intn(3))
			for i := range hs {
				hs[i] = handles[rng.Intn(len(handles))]
			}
			if rng.Intn(3) == 0 {
				hs = append(hs, hs[rng.Intn(len(hs))])
			}
			return hs
		}
		pin := func(hs []*Handle) {
			for _, h := range hs {
				if !seen[h] {
					pinFirst++
				}
				seen[h] = true
				m.pin(h)
				ref.pin(h)
			}
		}
		var running [][]*Handle
		for step := 0; step < 300; step++ {
			switch rng.Intn(5) {
			case 0, 1: // stage and pin a task's working set
				hs := workingSet()
				pinBefore := rng.Intn(4) == 0
				if pinBefore {
					pin(hs)
				}
				for _, h := range hs {
					if _, resident := ref.elems[h]; !resident {
						for ref.used+h.bytes > ref.capacity {
							v := ref.victim()
							if v == nil {
								break
							}
							if got := m.victim(); got != v {
								t.Fatalf("seed %d step %d: victim = %v, reference %v", seed, step, got, v)
							}
							m.drop(v)
							ref.drop(v)
						}
					}
					seen[h] = true
					m.touch(h)
					ref.touch(h)
				}
				if !pinBefore {
					pin(hs)
				}
				running = append(running, hs)
			case 2: // a task completes
				if len(running) > 0 {
					k := rng.Intn(len(running))
					for _, h := range running[k] {
						m.unpin(h)
						ref.unpin(h)
					}
					running = append(running[:k], running[k+1:]...)
				}
			case 3: // a write elsewhere invalidates this node's copy
				h := handles[rng.Intn(len(handles))]
				if _, resident := ref.elems[h]; resident && ref.pins[h] > 0 {
					droppedPinned++
				}
				m.drop(h)
				ref.drop(h)
			case 4: // LRU eviction
				v := ref.victim()
				if got := m.victim(); got != v {
					t.Fatalf("seed %d step %d: victim = %v, reference %v", seed, step, got, v)
				}
				if v != nil {
					m.drop(v)
					ref.drop(v)
				}
			}
			if got, want := lruOrder(m), ref.order(); !sameHandles(got, want) {
				t.Fatalf("seed %d step %d: LRU order %v, reference %v", seed, step, got, want)
			}
			if got, want := m.victim(), ref.victim(); got != want {
				t.Fatalf("seed %d step %d: victim = %v, reference %v", seed, step, got, want)
			}
			if m.used != ref.used {
				t.Fatalf("seed %d step %d: used = %v, reference %v", seed, step, m.used, ref.used)
			}
			if got, want := m.pinned, ref.pinned(); got != want {
				t.Fatalf("seed %d step %d: pinned = %v, LRU walk sums %v", seed, step, got, want)
			}
			for q := 0; q < 4; q++ {
				hs := workingSet()
				got, want := m.canFit(hs), ref.canFit(hs)
				if got != want {
					t.Fatalf("seed %d step %d: canFit = %v, LRU walk says %v", seed, step, got, want)
				}
				if got {
					fits++
				} else {
					misses++
				}
			}
		}
	}
	if fits == 0 || misses == 0 || pinFirst == 0 || droppedPinned == 0 {
		t.Fatalf("degenerate property run: %d fits, %d misses, %d pins before first touch, %d pinned drops",
			fits, misses, pinFirst, droppedPinned)
	}
}

func sameHandles(a, b []*Handle) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
