package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

func TestJobSeedsReplay(t *testing.T) {
	a, b := newJobSeeds(5, "grid-service"), newJobSeeds(5, "grid-service")
	for i := 0; i < 100; i++ {
		if x, y := a.next(), b.next(); x != y {
			t.Fatalf("job %d: seeds %d and %d from the same arguments", i, x, y)
		}
	}
	if newJobSeeds(5, "grid-service").next() == newJobSeeds(6, "grid-service").next() {
		t.Error("workload seeds 5 and 6 start with the same job seed")
	}
	if newJobSeeds(5, "grid-service").next() == newJobSeeds(5, "chaos-resume").next() {
		t.Error("two workloads start with the same job seed")
	}
}

// No run resubmits a job identity: every job of a run, warm-ups included,
// expands to a service job with an ID of its own.
func TestJobSeedsNeverRepeatAJob(t *testing.T) {
	s := newJobSeeds(1, "grid-service")
	seen := map[string]bool{}
	for i := 0; i < 5000; i++ {
		id := serviceSpec(s.next()).ID()
		if seen[id] {
			t.Fatalf("job %d repeats service job %s", i, id)
		}
		seen[id] = true
	}
}

func TestJobSeedsSkipASeedAlreadyUsed(t *testing.T) {
	s := newJobSeeds(9, "fig4-hotpath")
	first := newJobSeeds(9, "fig4-hotpath").next()
	s.used[first] = true // as if an earlier job had drawn it
	if got := s.next(); got == first {
		t.Fatalf("next() handed out seed %d twice", got)
	}
}

// The names a run reports are the names BENCHMARK.json declares.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark:", err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &b); err != nil {
		t.Fatal(err)
	}
	w := &work{}
	out := &result{Metrics: map[string]metric{}}
	w.perLayer(out)
	check := func(kind string, declared []struct{ Name, Unit string }, names []string, reported map[string]metric) {
		var got []string
		for _, d := range declared {
			got = append(got, d.Name)
			if m, ok := reported[d.Name]; ok && m.Unit != d.Unit {
				t.Errorf("%s %s: unit %q, BENCHMARK.json says %q", kind, d.Name, m.Unit, d.Unit)
			}
		}
		want := append([]string(nil), names...)
		sort.Strings(got)
		sort.Strings(want)
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %v, the benchmark %v", kind, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s: BENCHMARK.json has %q, the benchmark %q", kind, got[i], want[i])
			}
		}
	}
	check("per_layer", b.PerLayer, perLayerNames, out.Metrics)
	if len(out.Metrics) != len(perLayerNames) {
		t.Errorf("perLayer reports %d metrics, perLayerNames lists %d", len(out.Metrics), len(perLayerNames))
	}
	check("end_to_end", b.EndToEnd, endToEndNames, nil)
}
