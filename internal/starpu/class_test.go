package starpu

import (
	"testing"

	"repro/internal/perfmodel"
	"repro/internal/units"
)

// newClassRT builds a dmdas runtime over testMachine with settable
// class strings, plus one warm-able task on every worker.
func newClassRT(t *testing.T, classes ...string) (*Runtime, *fixedClassMachine, *Task) {
	t.Helper()
	fm := &fixedClassMachine{testMachine: newTestMachine(), classes: classes}
	rt, err := New(fm, Config{Scheduler: "dmdas", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := rt.Register(nil, 8, 64, 64)
	task := &Task{Codelet: anyCodelet, Handles: []*Handle{h}, Modes: []AccessMode{R}, Work: 1e9}
	if err := rt.Submit(task); err != nil {
		t.Fatal(err)
	}
	return rt, fm, task
}

func record(rt *Runtime, task *Task, class string, d units.Seconds) {
	rt.model.Record(perfmodel.Key{Codelet: task.Codelet.Name, Footprint: task.Footprint(), WorkerClass: class}, d)
}

func wantEstimate(t *testing.T, rt *Runtime, task *Task, worker int, dur units.Seconds, calibrated bool) {
	t.Helper()
	if d, c := rt.estimate(task, worker); d != dur || c != calibrated {
		t.Fatalf("estimate on worker %d = (%v, %v), want (%v, %v)", worker, d, c, dur, calibrated)
	}
}

// TestEstimateFollowsClassChange: a cap write or a throttle window
// changes the worker's class string, and the next estimate must come
// from the new class, not from the entry cached under the old one.
func TestEstimateFollowsClassChange(t *testing.T) {
	rt, fm, task := newClassRT(t, "cpu0@a", "cpu0@a", "cuda0@200W", "cuda1@200W")
	record(rt, task, "cuda0@200W", 1)
	record(rt, task, "cuda0@150W", 2)
	// Stand in for the completion that recorded the sample: the Submit's
	// push cached the uncalibrated guess under generation 0.
	rt.classGen[rt.strIDs["cuda0@200W"]]++

	wantEstimate(t, rt, task, 2, 1, true)
	fm.classes[2] = "cuda0@150W" // cap write
	wantEstimate(t, rt, task, 2, 2, true)
	fm.classes[2] = "cuda0@200W" // cap restored: the old entry is still valid
	wantEstimate(t, rt, task, 2, 1, true)
	fm.classes[2] = "cuda0@120W" // throttle window: a class never calibrated
	wantEstimate(t, rt, task, 2, units.Seconds(float64(task.Work)/1e12), false)
}

// TestCompletionBumpsOnlyItsClassString: a completion records a sample
// under its worker's class string; only that string's generation moves,
// so other classes keep serving their cached estimates.
func TestCompletionBumpsOnlyItsClassString(t *testing.T) {
	rt, fm, _ := newClassRT(t, "cpu0@a", "cpu0@a", "cuda0@200W", "cuda1@200W")
	h := rt.Register(nil, 8, 64, 64)
	cpuTask := &Task{Codelet: cpuOnly, Handles: []*Handle{h}, Modes: []AccessMode{R}, Work: 1e9}
	for _, tk := range []*Task{
		cpuTask,
		{Codelet: gpuOnly, Handles: []*Handle{h}, Modes: []AccessMode{R}, Work: 1e9},
		{Codelet: gpuOnly, Handles: []*Handle{h}, Modes: []AccessMode{R}, Work: 2e9},
	} {
		if err := rt.Submit(tk); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	want := map[string]uint64{}
	for _, tk := range rt.Tasks() {
		want[fm.classes[tk.WorkerID]]++
	}
	for name, str := range rt.strIDs {
		if got := rt.classGen[str]; got != want[name] {
			t.Errorf("class %q generation = %d after %d completions under it", name, got, want[name])
		}
	}
	// The CPU completion calibrated the shared socket class for both
	// CPU workers.
	for w := 0; w < 2; w++ {
		wantEstimate(t, rt, cpuTask, w, cpuTask.Duration(), true)
	}
}

// TestSameClassStringKeepsPerKindFallback: workers of different kinds
// reporting the same class string share the model entry but not the
// uncalibrated fallback, which depends on the worker kind.
func TestSameClassStringKeepsPerKindFallback(t *testing.T) {
	rt, _, task := newClassRT(t, "shared", "shared", "shared", "shared")
	wantEstimate(t, rt, task, 2, units.Seconds(float64(task.Work)/1e12), false)
	wantEstimate(t, rt, task, 0, units.Seconds(float64(task.Work)/5e9), false)
	wantEstimate(t, rt, task, 3, units.Seconds(float64(task.Work)/1e12), false)
	wantEstimate(t, rt, task, 1, units.Seconds(float64(task.Work)/5e9), false)
	if len(rt.classes) != 2 || len(rt.classGen) != 1 {
		t.Fatalf("%d class ids over %d class strings, want 2 over 1", len(rt.classes), len(rt.classGen))
	}
	// A completion under the shared string stales both kinds' entries.
	record(rt, task, "shared", 3)
	rt.classGen[rt.strIDs["shared"]]++
	wantEstimate(t, rt, task, 0, 3, true)
	wantEstimate(t, rt, task, 2, 3, true)
}

// TestCapBlindClassKeepsEstimates mirrors platform.ClassIgnoresCap: the
// class string omits the power state, so a cap change leaves the
// worker's class — and its calibrated estimate — untouched, while
// turning the cap back into the class moves the worker to a new one.
func TestCapBlindClassKeepsEstimates(t *testing.T) {
	rt, fm, task := newClassRT(t, "cpu0", "cpu0", "cuda0", "cuda1")
	record(rt, task, "cuda0", 1)
	rt.classGen[rt.strIDs["cuda0"]]++
	wantEstimate(t, rt, task, 2, 1, true)
	fm.rates[2] /= 2 // the cap halves the rate; the class does not see it
	wantEstimate(t, rt, task, 2, 1, true)
	fm.classes[2] = "cuda0@150W"
	wantEstimate(t, rt, task, 2, units.Seconds(float64(task.Work)/1e12), false)
	fm.classes[2] = "cuda0"
	wantEstimate(t, rt, task, 2, 1, true)
}
