package telemetry

import (
	"sync"
	"testing"

	"repro/internal/dyncap"
)

// TestRunScopeIsolatesSamplers runs two scoped runs concurrently against
// one collector: each scope's sampler must hold only its own run's
// series, and label resolution must go through the scope's own runtime
// rather than whichever run attached last.  Meaningful under -race.
func TestRunScopeIsolatesSamplers(t *testing.T) {
	c := NewCollector()

	type run struct {
		scope *RunScope
		n     int
	}
	runs := []*run{
		{scope: c.NewRunScope(), n: 6},
		{scope: c.NewRunScope(), n: 14},
	}

	var wg sync.WaitGroup
	for _, r := range runs {
		// The scope, not the collector, is the runtime observer.
		plat, rt := newRun(t, r.scope, "dmda", r.n)
		if _, err := r.scope.Attach(plat, rt, SamplerConfig{Interval: 0.05}); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := rt.Run(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()

	s0, s1 := runs[0].scope.Sampler(), runs[1].scope.Sampler()
	if s0 == nil || s1 == nil || s0 == s1 {
		t.Fatalf("scopes must own distinct samplers: %p %p", s0, s1)
	}
	for i, s := range []*Sampler{s0, s1} {
		if len(s.GPUSeries(0)) == 0 {
			t.Errorf("scope %d: empty GPU series", i)
		}
		if !s.Stopped() {
			t.Errorf("scope %d: sampler still running after its run drained", i)
		}
	}
	// The collector's "current" sampler is one of the two (the most
	// recently attached), never a third object.
	if cur := c.Sampler(); cur != s0 && cur != s1 {
		t.Errorf("collector current sampler is foreign: %p", cur)
	}

	// Shared counters accumulate across both runs.
	if got := c.tasksSubmitted.With("dgemm").Value(); got != float64(runs[0].n+runs[1].n) {
		t.Errorf("submitted = %v, want %d", got, runs[0].n+runs[1].n)
	}
	// Worker labels resolved through the scopes' own runtimes: no
	// completion may fall back to the "unknown" label.
	for _, fam := range c.Registry.Snapshot() {
		if fam.Name != "capsim_tasks_completed_total" {
			continue
		}
		var total float64
		for _, s := range fam.Series {
			if s.Labels["worker"] == "unknown" || s.Labels["kind"] == "unknown" {
				t.Errorf("completion with unresolved labels: %+v", s.Labels)
			}
			total += s.Value
		}
		if total != float64(runs[0].n+runs[1].n) {
			t.Errorf("completions = %v, want %d", total, runs[0].n+runs[1].n)
		}
	}
}

// TestRunScopeCapEventsStayScoped: dyncap cap moves reported through a
// scope land in that scope's sampler series only.
func TestRunScopeCapEventsStayScoped(t *testing.T) {
	c := NewCollector()
	sA := c.NewRunScope()
	sB := c.NewRunScope()
	platA, rtA := newRun(t, sA, "dmda", 3)
	platB, rtB := newRun(t, sB, "dmda", 3)
	smpA, err := sA.Attach(platA, rtA, SamplerConfig{Interval: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	smpB, err := sB.Attach(platB, rtB, SamplerConfig{Interval: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rtA.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := rtB.Run(); err != nil {
		t.Fatal(err)
	}

	// Report a cap move through scope A only (ObserveCapMoves routes
	// through Scope.Sampler()).
	sA.ObserveCapMoves([]dyncap.CapChange{{T: platA.Engine().Now(), GPU: 0, Old: 300, New: 250}})
	if got := len(smpA.CapEvents()); got != 1 {
		t.Errorf("scope A cap events = %d, want 1", got)
	}
	if got := len(smpB.CapEvents()); got != 0 {
		t.Errorf("scope B cap events = %d, want 0 (leaked from A)", got)
	}
}
