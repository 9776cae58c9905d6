package starpu

import (
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

// canFitLRUWalk is the reference formula nodeMemory.canFit replaced:
// the same question answered by walking the whole LRU list and summing
// every resident, unpinned byte outside the working set.
func canFitLRUWalk(m *nodeMemory, hs []*Handle) bool {
	var needed units.Bytes
	for i, h := range hs {
		if containsHandle(hs[:i], h) {
			continue
		}
		if _, resident := m.elems[h]; !resident {
			needed += h.bytes
		}
	}
	free := m.capacity - m.used
	var evictable units.Bytes
	for e := m.lru.Front(); e != nil; e = e.Next() {
		h := e.Value.(*Handle)
		if !containsHandle(hs, h) && m.pins[h] == 0 {
			evictable += h.bytes
		}
	}
	return needed <= free+evictable
}

// pinnedByWalk recomputes nodeMemory.pinned from the LRU list.
func pinnedByWalk(m *nodeMemory) units.Bytes {
	var sum units.Bytes
	for e := m.lru.Front(); e != nil; e = e.Next() {
		if h := e.Value.(*Handle); m.pins[h] > 0 {
			sum += h.bytes
		}
	}
	return sum
}

// TestCanFitMatchesLRUWalk drives one bounded node through seeded random
// sequences of the operations the runtime performs — staging a working
// set (evict, touch, pin; a handle may repeat within a task), releasing
// a task's pins, dropping a copy a remote write invalidated (pinned or
// not), and bare LRU evictions — and after every step checks the
// incremental canFit against the LRU walk and the pinned counter
// against its recomputed sum.
func TestCanFitMatchesLRUWalk(t *testing.T) {
	var fits, misses int
	for seed := int64(0); seed < 40; seed++ {
		rng := newSeededRand(seed)
		handles := make([]*Handle, 12)
		for i := range handles {
			handles[i] = &Handle{id: i, bytes: units.Bytes((1 + rng.Intn(3)) * tileBytes)}
		}
		m := newNodeMemory(1, units.Bytes(8*tileBytes))
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
		var running [][]*Handle
		for step := 0; step < 300; step++ {
			switch rng.Intn(5) {
			case 0, 1: // stage and pin a task's working set
				hs := workingSet()
				for _, h := range hs {
					if _, resident := m.elems[h]; !resident {
						for m.used+h.bytes > m.capacity {
							v := m.victim()
							if v == nil {
								break
							}
							m.drop(v)
						}
					}
					m.touch(h)
				}
				for _, h := range hs {
					m.pin(h)
				}
				running = append(running, hs)
			case 2: // a task completes
				if len(running) > 0 {
					k := rng.Intn(len(running))
					for _, h := range running[k] {
						m.unpin(h)
					}
					running = append(running[:k], running[k+1:]...)
				}
			case 3: // a write elsewhere invalidates this node's copy
				m.drop(handles[rng.Intn(len(handles))])
			case 4: // LRU eviction
				if v := m.victim(); v != nil {
					m.drop(v)
				}
			}
			if got, want := m.pinned, pinnedByWalk(m); got != want {
				t.Fatalf("seed %d step %d: pinned = %v, LRU walk sums %v", seed, step, got, want)
			}
			for q := 0; q < 4; q++ {
				hs := workingSet()
				got, want := m.canFit(hs), canFitLRUWalk(m, hs)
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
	if fits == 0 || misses == 0 {
		t.Fatalf("degenerate property run: %d fits, %d misses", fits, misses)
	}
}
