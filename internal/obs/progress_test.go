package obs

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// fakeClock advances on demand so progress tests are deterministic.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time      { return c.t }
func (c *fakeClock) add(d time.Duration) { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock           { return &fakeClock{t: time.Unix(1000, 0)} }
func trackerWithClock(bus *Bus) (*Tracker, *fakeClock) {
	tr := NewTracker(bus)
	c := newFakeClock()
	tr.SetClock(c.now)
	return tr, c
}

func TestProgressBasics(t *testing.T) {
	tr, clk := trackerWithClock(NewBus())
	tr.Observe(Event{Type: SweepStarted, Total: 4, PlanTotals: map[string]int{"HHBB": 2, "HHHH": 2}})
	tr.Observe(Event{Type: CellStarted, Cell: "a", Plan: "HHBB"})
	clk.add(2 * time.Second)
	tr.Observe(Event{Type: CellFinished, Cell: "a", Plan: "HHBB", SimTime: 12.5, Efficiency: 1.1})

	s := tr.Snapshot()
	if s.Total != 4 || s.Done != 1 || s.InFlight != 0 {
		t.Fatalf("snapshot %+v: want total 4, done 1, in-flight 0", s)
	}
	if s.Percent != 25 {
		t.Fatalf("percent %v, want 25", s.Percent)
	}
	if s.PerPlan["HHBB"].Done != 1 || s.PerPlan["HHBB"].Total != 2 {
		t.Fatalf("per-plan %+v", s.PerPlan)
	}
	if s.EtaSeconds == nil || *s.EtaSeconds <= 0 {
		t.Fatalf("eta %v, want positive", s.EtaSeconds)
	}
	if s.CellsPerSec <= 0 {
		t.Fatalf("rate %v, want positive", s.CellsPerSec)
	}
}

// TestProgressMonotoneUnderResume is the satellite contract: a resume
// replays half the grid in microseconds; done must be monotone, the
// ETA non-negative and finite, and the rate must not be poisoned by
// the replay burst.
func TestProgressMonotoneUnderResume(t *testing.T) {
	tr, clk := trackerWithClock(NewBus())
	tr.Observe(Event{Type: SweepStarted, Total: 100})

	prevDone := 0
	check := func() {
		s := tr.Snapshot()
		if s.Done < prevDone {
			t.Fatalf("done went backwards: %d -> %d", prevDone, s.Done)
		}
		prevDone = s.Done
		if s.EtaSeconds != nil && *s.EtaSeconds < 0 {
			t.Fatalf("negative eta %v", *s.EtaSeconds)
		}
		if s.Percent < 0 || s.Percent > 100 {
			t.Fatalf("percent out of range: %v", s.Percent)
		}
	}

	// Resume burst: 50 cells restored in ~zero wall time.
	for i := 0; i < 50; i++ {
		tr.Observe(Event{Type: CellResumed, Cell: "r", Plan: "HHBB"})
		check()
	}
	// No real cell has completed: ETA must be absent, not absurd.
	if s := tr.Snapshot(); s.EtaSeconds != nil {
		t.Fatalf("eta %v after pure resume burst, want nil (no measured cells yet)", *s.EtaSeconds)
	}

	// Real cells at ~1 cell / 2s.
	for i := 0; i < 10; i++ {
		tr.Observe(Event{Type: CellStarted, Cell: "c", Plan: "HHBB"})
		clk.add(2 * time.Second)
		tr.Observe(Event{Type: CellFinished, Cell: "c", Plan: "HHBB"})
		check()
	}
	s := tr.Snapshot()
	if s.Done != 60 || s.Resumed != 50 {
		t.Fatalf("done %d resumed %d, want 60/50", s.Done, s.Resumed)
	}
	if s.EtaSeconds == nil {
		t.Fatal("eta missing after measured cells")
	}
	// 40 cells remain at ~0.5 cells/sec -> ~80s; the resume burst must
	// not have dragged the estimate toward zero.
	if *s.EtaSeconds < 20 || *s.EtaSeconds > 400 {
		t.Fatalf("eta %v s, want in a sane band around 80s", *s.EtaSeconds)
	}
}

func TestProgressStragglers(t *testing.T) {
	tr, clk := trackerWithClock(NewBus())
	tr.Observe(Event{Type: SweepStarted, Total: 10})
	// Six quick cells establish the p95 (~1s).
	for i := 0; i < 6; i++ {
		tr.Observe(Event{Type: CellStarted, Cell: "quick"})
		clk.add(time.Second)
		tr.Observe(Event{Type: CellFinished, Cell: "quick"})
	}
	tr.Observe(Event{Type: CellStarted, Cell: "slowpoke"})
	clk.add(30 * time.Second)
	s := tr.Snapshot()
	if s.P95CellSeconds <= 0 {
		t.Fatalf("p95 %v, want positive", s.P95CellSeconds)
	}
	if len(s.Stragglers) != 1 || s.Stragglers[0].Cell != "slowpoke" {
		t.Fatalf("stragglers %+v, want slowpoke flagged", s.Stragglers)
	}
	if s.Stragglers[0].ElapsedS < 29 {
		t.Fatalf("straggler elapsed %v, want ~30s", s.Stragglers[0].ElapsedS)
	}
}

func TestProgressFailuresAndFaultCounters(t *testing.T) {
	tr, _ := trackerWithClock(NewBus())
	tr.Observe(Event{Type: SweepStarted, Total: 3})
	tr.Observe(Event{Type: CellStarted, Cell: "h"})
	tr.Observe(Event{Type: CellHung, Cell: "h"})
	tr.Observe(Event{Type: CellPanicked, Cell: "p"})
	tr.Observe(Event{Type: CapRetryExhausted, GPU: 1})
	tr.Observe(Event{Type: BreakerTripped, GPU: 1})
	tr.Observe(Event{Type: WorkerEvicted, Worker: 2})
	tr.Observe(Event{Type: DegradedRun, Cell: "d", Detail: "HHB_"})
	s := tr.Snapshot()
	if s.Failed != 2 || s.InFlight != 0 {
		t.Fatalf("failed %d in-flight %d, want 2/0", s.Failed, s.InFlight)
	}
	if s.CapRetryExhausted != 1 || s.BreakerTrips != 1 || s.WorkersEvicted != 1 || s.Degraded != 1 {
		t.Fatalf("fault counters %+v", s)
	}
}

// TestTrackerRunDrainsBus: the Run loop must fold events arriving via
// its private subscriber.
func TestTrackerRunDrainsBus(t *testing.T) {
	bus := NewBus()
	tr := NewTracker(bus)
	ctx, cancel := context.WithCancel(context.Background())
	wait := tr.Start(ctx, 64)

	// Start's subscription is synchronous, so these cannot be missed.
	bus.Publish(Event{Type: SweepStarted, Total: 2})
	bus.Publish(Event{Type: CellResumed, Cell: "a"})
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if s := tr.Snapshot(); s.Done == 1 && s.Total == 2 {
			cancel()
			wait()
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("tracker never saw the published events: %+v", tr.Snapshot())
}

// TestTrackerP95MatchesFreshSort: the sorted-insert p95 the lease path
// reads is the right order statistic of every recorded duration after
// each completion, both while the sample grows and once it is capped
// at maxDurationSamples (later completions no longer enter it).  Every
// completion gets an O(n) rank check; every 256th, and each one around
// the cap, is also compared with a fresh sort.
func TestTrackerP95MatchesFreshSort(t *testing.T) {
	tr, clk := trackerWithClock(NewBus())
	rng := rand.New(rand.NewSource(3))
	var kept []float64
	for i := 0; i < maxDurationSamples+200; i++ {
		cell := fmt.Sprintf("c%d", i)
		tr.Observe(Event{Type: CellStarted, Cell: cell})
		d := time.Duration(rng.Intn(int(time.Second)))
		clk.add(d)
		tr.Observe(Event{Type: CellFinished, Cell: cell})
		if len(kept) < maxDurationSamples {
			kept = append(kept, d.Seconds())
		}
		got := tr.P95().Seconds()
		if len(kept) < 4 {
			if got != 0 {
				t.Fatalf("after %d completions: P95 = %v, want 0 below 4 samples", i+1, got)
			}
			continue
		}
		// got must be the idx-th smallest sample: at most idx samples
		// below it and more than idx at or below it.
		idx := int(math.Ceil(0.95*float64(len(kept)))) - 1
		below, atOrBelow := 0, 0
		for _, x := range kept {
			if x < got-1e-9 {
				below++
			}
			if x <= got+1e-9 {
				atOrBelow++
			}
		}
		if below > idx || atOrBelow <= idx {
			t.Fatalf("after %d completions: P95 = %v is not the sample's p95 (%d below, %d at or below, index %d)",
				i+1, got, below, atOrBelow, idx)
		}
		if i%256 == 0 || (i >= maxDurationSamples-2 && i <= maxDurationSamples+2) {
			fresh := append([]float64(nil), kept...)
			sort.Float64s(fresh)
			if want := fresh[idx]; got != tr.Snapshot().P95CellSeconds || math.Abs(got-want) > 1e-9 {
				t.Fatalf("after %d completions: P95 = %v, snapshot %v, fresh sort %v",
					i+1, got, tr.Snapshot().P95CellSeconds, want)
			}
		}
	}
}
