package starpu

import (
	"reflect"
	"testing"
)

// zeroed reports whether every element of every chunk of s is the zero
// value: no pointer into an earlier cell survives.
func zeroed[T any](s *slab[T]) bool {
	for _, c := range s.chunks {
		for i := range c {
			if !reflect.ValueOf(&c[i]).Elem().IsZero() {
				return false
			}
		}
	}
	return true
}

// TestArenaReuseMatchesFresh instantiates a graph into an arena that
// last held a bigger one — run to completion through LRU evictions and
// an extra Submit — and requires the same tasks (edges in order),
// handles (readers in order), observer events and timings as a fresh
// SubmitGraph, before and after the run.  A second runtime carving from
// the same arena without a Reset, as a measured pass follows its
// calibration pass, must match as well.
func TestArenaReuseMatchesFresh(t *testing.T) {
	big, err := Record(buildTiles(7))
	if err != nil {
		t.Fatal(err)
	}
	small, err := Record(buildTiles(4))
	if err != nil {
		t.Fatal(err)
	}
	newRT := func(a *Arena) (*Runtime, *eventLog) {
		log := &eventLog{}
		m := &cappedMachine{testMachine: newTestMachine(), capacity: 6 * tileBytes}
		cfg := Config{Scheduler: "dmdas", Seed: 3, Observer: log}
		var rt *Runtime
		var err error
		if a == nil {
			rt, err = New(m, cfg)
		} else {
			rt, err = a.New(m, cfg)
		}
		if err != nil {
			t.Fatal(err)
		}
		return rt, log
	}
	submit := func(rt *Runtime, g *Graph) {
		t.Helper()
		if err := rt.SubmitGraph(g); err != nil {
			t.Fatal(err)
		}
	}
	run := func(rt *Runtime) {
		t.Helper()
		if _, err := rt.Run(); err != nil {
			t.Fatal(err)
		}
	}

	a := new(Arena)
	prev, _ := newRT(a)
	submit(prev, big)
	hs := []*Handle{prev.handles[0], prev.handles[9]}
	if err := prev.Submit(&Task{Codelet: anyCodelet, Handles: hs, Modes: []AccessMode{RW, R}, Work: 1e8, Tag: "extra"}); err != nil {
		t.Fatal(err)
	}
	run(prev)
	if prev.MemoryStats().Evictions == 0 {
		t.Fatal("the big run did not exercise LRU eviction")
	}
	if n := a.Tasks(); n < big.NumTasks() {
		t.Fatalf("arena holds %d tasks after a %d-task graph", n, big.NumTasks())
	}
	a.Reset()
	if !zeroed(&a.tasks) || !zeroed(&a.handles) || !zeroed(&a.taskPtrs) ||
		!zeroed(&a.handlePtrs) || !zeroed(&a.estimates) || !zeroed(&a.residency) {
		t.Fatal("Reset left carved memory non-zero")
	}

	for _, stage := range []string{"after reset", "sharing the arena"} {
		fresh, flog := newRT(nil)
		reused, rlog := newRT(a)
		submit(fresh, small)
		submit(reused, small)
		compareRuntimes(t, stage+": submitted", fresh, reused, flog, rlog)
		run(fresh)
		run(reused)
		compareRuntimes(t, stage+": run", fresh, reused, flog, rlog)
	}
}
