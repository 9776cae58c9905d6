package eventsim

import "testing"

// TestNoAllocsSteadyState pins the zero-allocation contract of the
// event loop's inner step: once the queue's backing array has grown to
// its working size, a pop-one/push-one steady state (an event that
// reschedules itself, the shape of every poller in the simulator) must
// not allocate.  A regression here — an event boxed back onto the heap,
// a queue that re-grows — shows up as a fractional allocs-per-op long
// before it is visible in the cell benchmark.
func TestNoAllocsSteadyState(t *testing.T) {
	e := NewEngine()
	fired := 0
	var fn func()
	fn = func() { fired++; e.After(1, fn) }
	e.After(1, fn)
	// Warm the queue's backing array and the closure's captures.
	for i := 0; i < 64; i++ {
		if !e.Step() {
			t.Fatal("queue drained during warmup")
		}
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if !e.Step() {
			t.Fatal("queue drained mid-measurement")
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Step allocates %.2f times per op, want 0", allocs)
	}
	if fired < 1064 {
		t.Fatalf("only %d events fired; the measurement loop did not run", fired)
	}
}

// selfScheduler is a typed event that reschedules itself one second
// later, counting firings in its argument — the shape of a task
// attempt's start and end events.
type selfScheduler struct {
	e    *Engine
	last uint64
}

func (s *selfScheduler) Fire(arg uint64) {
	s.last = arg
	s.e.Schedule(s.e.Now()+1, s, arg+1)
}

// TestNoAllocsTypedEvent pins the contract typed events exist for:
// scheduling and firing one allocates nothing, where a closure event
// allocates its captures.
func TestNoAllocsTypedEvent(t *testing.T) {
	e := NewEngine()
	s := &selfScheduler{e: e}
	e.Schedule(1, s, 0)
	for i := 0; i < 64; i++ {
		e.Step()
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if !e.Step() {
			t.Fatal("queue drained mid-measurement")
		}
	})
	if allocs != 0 {
		t.Fatalf("typed event schedule+fire allocates %.2f times per op, want 0", allocs)
	}
	if s.last < 1064 {
		t.Fatalf("only %d typed events fired", s.last)
	}
}
