package starpu

import (
	"container/list"
	"fmt"

	"repro/internal/units"
)

// CapacityModel is an optional Machine capability: bounded memory per
// node.  Nodes without a bound (the host) report 0.
type CapacityModel interface {
	// NodeCapacity reports node n's memory size in bytes (0 = unbounded).
	NodeCapacity(n int) units.Bytes
}

// nodeMemory tracks one bounded memory node: resident handles in LRU
// order, pin counts for handles used by in-flight tasks, the used byte
// count and, of those, the pinned byte count.
type nodeMemory struct {
	node     int
	capacity units.Bytes
	used     units.Bytes
	// pinned is the bytes of resident handles whose pin count is > 0.
	// touch, drop, pin and unpin keep it current, so canFit reads the
	// node's evictable bytes without walking the LRU list.
	pinned units.Bytes
	lru    *list.List // *Handle, front = least recent
	elems  map[*Handle]*list.Element
	pins   map[*Handle]int
}

func newNodeMemory(node int, capacity units.Bytes) *nodeMemory {
	return &nodeMemory{
		node:     node,
		capacity: capacity,
		lru:      list.New(),
		elems:    make(map[*Handle]*list.Element),
		pins:     make(map[*Handle]int),
	}
}

// touch marks h resident and most-recently used, accounting its bytes on
// first residency.
func (m *nodeMemory) touch(h *Handle) {
	if e, ok := m.elems[h]; ok {
		m.lru.MoveToBack(e)
		return
	}
	m.elems[h] = m.lru.PushBack(h)
	m.used += h.bytes
	if m.pins[h] > 0 {
		m.pinned += h.bytes
	}
}

// drop removes h from the node's accounting.
func (m *nodeMemory) drop(h *Handle) {
	if e, ok := m.elems[h]; ok {
		m.lru.Remove(e)
		delete(m.elems, h)
		m.used -= h.bytes
		if m.pins[h] > 0 {
			m.pinned -= h.bytes
		}
	}
}

// pin prevents h's eviction while a task uses it.  A write elsewhere
// can drop a pinned handle (dropInvalid), so pins may outlive
// residency; only resident bytes count towards pinned.
func (m *nodeMemory) pin(h *Handle) {
	n := m.pins[h]
	if _, resident := m.elems[h]; n == 0 && resident {
		m.pinned += h.bytes
	}
	m.pins[h] = n + 1
}

func (m *nodeMemory) unpin(h *Handle) {
	switch n := m.pins[h]; {
	case n > 1:
		m.pins[h] = n - 1
	case n == 1:
		delete(m.pins, h)
		if _, resident := m.elems[h]; resident {
			m.pinned -= h.bytes
		}
	}
}

// canFit reports whether a working set can be staged right now: its
// missing bytes must fit into free plus evictable bytes, where
// evictable is every resident unpinned byte outside the working set
// itself.  The cost is O(len(hs)): evictable is used − pinned minus
// the working set's own resident unpinned bytes (each handle counted
// once).  Byte counts are integral and far below 2^53, so the float
// sums are exact and the result equals an LRU walk's in any order.
// Working sets are a handful of handles, so duplicates are found by
// scanning the slice instead of building a set.
func (m *nodeMemory) canFit(hs []*Handle) bool {
	var needed, ownEvictable units.Bytes
	for i, h := range hs {
		if containsHandle(hs[:i], h) {
			continue
		}
		if _, resident := m.elems[h]; !resident {
			needed += h.bytes
		} else if m.pins[h] == 0 {
			ownEvictable += h.bytes
		}
	}
	free := m.capacity - m.used
	evictable := m.used - m.pinned - ownEvictable
	return needed <= free+evictable
}

// victim picks the least-recently-used unpinned resident handle, or nil.
func (m *nodeMemory) victim() *Handle {
	for e := m.lru.Front(); e != nil; e = e.Next() {
		h := e.Value.(*Handle)
		if m.pins[h] == 0 {
			return h
		}
	}
	return nil
}

// MemoryStats summarises the eviction activity of one run.
type MemoryStats struct {
	// Evictions counts handles pushed out of a bounded node.
	Evictions int
	// WritebackBytes counts bytes flushed to the host because the
	// evicted copy was the last valid one.
	WritebackBytes units.Bytes
}

// initMemory builds the per-node trackers when the machine bounds them.
func (rt *Runtime) initMemory() {
	cm, ok := rt.machine.(CapacityModel)
	if !ok {
		return
	}
	for n := 0; n < rt.machine.NumNodes(); n++ {
		if c := cm.NodeCapacity(n); c > 0 {
			if rt.memory == nil {
				rt.memory = make(map[int]*nodeMemory)
			}
			rt.memory[n] = newNodeMemory(n, c)
		}
	}
}

// ensureResident makes room for h on node (evicting LRU handles as
// needed) and accounts it resident.  It returns the virtual time when
// any eviction writebacks complete (start for the incoming transfer).
// Bounded-node overflow by a single working set larger than the device
// panics: the workload cannot run, matching a CUDA OOM.
func (rt *Runtime) ensureResident(h *Handle, node int, from units.Seconds) units.Seconds {
	mem, ok := rt.memory[node]
	if !ok {
		return from
	}
	if _, resident := mem.elems[h]; resident {
		mem.touch(h)
		return from
	}
	if h.bytes > mem.capacity {
		panic(fmt.Sprintf("starpu: handle of %v exceeds node %d capacity %v", h.bytes, node, mem.capacity))
	}
	ready := from
	for mem.used+h.bytes > mem.capacity {
		v := mem.victim()
		if v == nil {
			panic(fmt.Sprintf("starpu: node %d out of memory: %v used of %v, all pinned",
				node, mem.used, mem.capacity))
		}
		// If this node holds the last valid copy, write it back to the
		// host before dropping it.
		if v.valid.has(node) && v.valid.count() == 1 {
			var end units.Seconds
			if rt.cfg.DisableTransferModel {
				end = from
			} else {
				_, end = rt.machine.ReserveLink(node, 0, from, v.bytes)
			}
			if end > ready {
				ready = end
			}
			v.valid.set(0)
			rt.memStats.WritebackBytes += v.bytes
		}
		v.valid.clear(node)
		mem.drop(v)
		rt.memStats.Evictions++
	}
	mem.touch(h)
	return ready
}

// pinHandles pins a task's working set on its node for the task's
// lifetime.
func (rt *Runtime) pinHandles(t *Task, node int) {
	mem, ok := rt.memory[node]
	if !ok {
		return
	}
	for _, h := range t.Handles {
		mem.pin(h)
	}
}

// unpinHandles releases the pins at task completion.
func (rt *Runtime) unpinHandles(t *Task, node int) {
	mem, ok := rt.memory[node]
	if !ok {
		return
	}
	for _, h := range t.Handles {
		mem.unpin(h)
	}
}

// dropInvalid removes h from node accounting after a write elsewhere
// invalidated its copy.
func (rt *Runtime) dropInvalid(h *Handle, node int) {
	if mem, ok := rt.memory[node]; ok {
		mem.drop(h)
	}
}

// canFit reports whether t's working set can be staged on node right
// now (see nodeMemory.canFit).  Unbounded nodes always fit.
func (rt *Runtime) canFit(t *Task, node int) bool {
	mem, ok := rt.memory[node]
	if !ok {
		return true
	}
	return mem.canFit(t.Handles)
}

// containsHandle reports whether h appears in hs (identity match).
func containsHandle(hs []*Handle, h *Handle) bool {
	for _, x := range hs {
		if x == h {
			return true
		}
	}
	return false
}

// assertCouldFit panics when t's deduplicated working set exceeds the
// node outright — the simulation equivalent of a CUDA out-of-memory.
func (rt *Runtime) assertCouldFit(t *Task, node int) {
	mem, ok := rt.memory[node]
	if !ok {
		return
	}
	var total units.Bytes
	for i, h := range t.Handles {
		if !containsHandle(t.Handles[:i], h) {
			total += h.bytes
		}
	}
	if total > mem.capacity {
		panic(fmt.Sprintf("starpu: task %q working set %v exceeds node %d capacity %v",
			t.Tag, total, node, mem.capacity))
	}
}

// MemoryStats reports the run's eviction activity.
func (rt *Runtime) MemoryStats() MemoryStats { return rt.memStats }

// NodeUsage reports the bytes resident on a bounded node (0 for
// unbounded nodes).
func (rt *Runtime) NodeUsage(node int) units.Bytes {
	if mem, ok := rt.memory[node]; ok {
		return mem.used
	}
	return 0
}
