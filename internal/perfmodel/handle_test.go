package perfmodel

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/units"
)

// checkVisible asserts that k holds exactly the samples want through
// every read path: Estimate, EstimateAt, Samples, Len and Dump.
func checkVisible(t *testing.T, step string, h *History, e *Entry, want ...float64) {
	t.Helper()
	k := e.key
	if got := h.Samples(k); got != len(want) {
		t.Fatalf("%s: Samples = %d, want %d", step, got, len(want))
	}
	if got := h.Len(); got != min(len(want), 1) {
		t.Fatalf("%s: Len = %d, want %d", step, got, min(len(want), 1))
	}
	if inDump := strings.Contains(h.Dump(), k.WorkerClass); inDump != (len(want) > 0) {
		t.Fatalf("%s: key in Dump %v, want %v", step, inDump, len(want) > 0)
	}
	d, ok := h.Estimate(k)
	da, oka := h.EstimateAt(e)
	if d != da || ok != oka {
		t.Fatalf("%s: Estimate %v/%v, EstimateAt %v/%v", step, d, ok, da, oka)
	}
	if len(want) == 0 {
		if ok {
			t.Fatalf("%s: empty key estimates %v", step, d)
		}
		return
	}
	var sum float64
	for _, w := range want {
		sum += w
	}
	if !ok || float64(d) != sum/float64(len(want)) {
		t.Fatalf("%s: Estimate = %v/%v, want %v", step, d, ok, sum/float64(len(want)))
	}
}

// TestHandleSurvivesInvalidateReset checks that a held handle stays
// live across every operation that drops samples: a later RecordAt is
// what Estimate, Samples and Dump see for its key.
func TestHandleSurvivesInvalidateReset(t *testing.T) {
	h := NewHistory()
	k := Key{Codelet: "dgemm", Footprint: 0xabc, WorkerClass: "cuda1@216W"}
	e := h.Handle(k)
	if h.Handle(k) != e {
		t.Fatal("Handle returned two entries for one key")
	}
	checkVisible(t, "fresh handle", h, e)

	h.RecordAt(e, 1)
	h.Record(k, 3)
	checkVisible(t, "recorded", h, e, 1, 3)

	if n := h.Invalidate(func(c string) bool { return strings.HasPrefix(c, "cuda1") }); n != 1 {
		t.Fatalf("Invalidate dropped %d keys, want 1", n)
	}
	checkVisible(t, "invalidated", h, e)
	if n := h.Invalidate(func(string) bool { return true }); n != 0 {
		t.Fatalf("Invalidate of an emptied key counted %d", n)
	}
	h.RecordAt(e, 2)
	checkVisible(t, "recorded after Invalidate", h, e, 2)

	h.Reset()
	checkVisible(t, "reset", h, e)
	if h.Handle(k) != e {
		t.Fatal("Reset replaced a held entry")
	}
	h.RecordAt(e, 4)
	checkVisible(t, "recorded after Reset", h, e, 4)
}

// recordEvent is one OnRecord call.
type recordEvent struct {
	key                 Key
	observed, predicted units.Seconds
	calibrated          bool
}

// TestHandlePathMatchesKeyPath records one sequence — with invalidations
// and a reset mixed in — once through Record(k) and once through handles
// resolved before the first sample, and checks that Dump, every key's
// Stddev and the OnRecord stream are identical.
func TestHandlePathMatchesKeyPath(t *testing.T) {
	var keys []Key
	for _, cl := range []string{"dgemm", "dtrsm", "spotrf"} {
		for _, wc := range []string{"cuda0@300W", "cuda1@216W", "cpu0@125W"} {
			for fp := uint64(1); fp <= 2; fp++ {
				keys = append(keys, Key{Codelet: cl, Footprint: fp, WorkerClass: wc})
			}
		}
	}
	type op struct {
		key int
		d   units.Seconds
	}
	rng := rand.New(rand.NewSource(7))
	var seq []op
	for i := 0; i < 2000; i++ {
		seq = append(seq, op{key: rng.Intn(len(keys)), d: units.Seconds(rng.ExpFloat64() * 1e-3)})
	}

	run := func(viaHandles bool) (string, []units.Seconds, []recordEvent) {
		h := NewHistory()
		h.MinSamples = 3
		var events []recordEvent
		h.OnRecord = func(k Key, observed, predicted units.Seconds, calibrated bool) {
			events = append(events, recordEvent{k, observed, predicted, calibrated})
		}
		handles := make([]*Entry, len(keys))
		if viaHandles {
			for i, k := range keys {
				handles[i] = h.Handle(k)
			}
		}
		for i, o := range seq {
			switch {
			case i == 700:
				h.Invalidate(func(c string) bool { return strings.HasPrefix(c, "cuda1") })
			case i == 1400:
				h.Reset()
			}
			if viaHandles {
				h.RecordAt(handles[o.key], o.d)
			} else {
				h.Record(keys[o.key], o.d)
			}
		}
		stddevs := make([]units.Seconds, len(keys))
		for i, k := range keys {
			stddevs[i] = h.Stddev(k)
		}
		return h.Dump(), stddevs, events
	}
	dumpK, stddevK, eventsK := run(false)
	dumpH, stddevH, eventsH := run(true)
	if !reflect.DeepEqual(stddevK, stddevH) {
		t.Errorf("Stddev differs: key path %v, handle path %v", stddevK, stddevH)
	}
	if dumpK != dumpH {
		t.Errorf("Dump differs:\nkey path:\n%s\nhandle path:\n%s", dumpK, dumpH)
	}
	if !reflect.DeepEqual(eventsK, eventsH) {
		t.Errorf("OnRecord streams differ (%d vs %d events)", len(eventsK), len(eventsH))
	}
	if len(eventsK) != len(seq) {
		t.Errorf("OnRecord fired %d times for %d records", len(eventsK), len(seq))
	}
}

// TestEmptyHandlesStayInvisible checks that handles never recorded
// through leave Len and Dump as if they had not been asked for.
func TestEmptyHandlesStayInvisible(t *testing.T) {
	h := NewHistory()
	h.Record(key("dgemm", "cuda0@400W"), 1)
	wantDump := h.Dump()
	for i := 0; i < 5; i++ {
		h.Handle(Key{Codelet: "never", Footprint: uint64(i), WorkerClass: "cuda9@1W"})
	}
	if h.Len() != 1 || h.Dump() != wantDump {
		t.Errorf("unrecorded handles changed the model: Len %d\n%s", h.Len(), h.Dump())
	}
}
