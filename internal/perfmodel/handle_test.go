package perfmodel

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/units"
)

// saved renders h's persisted JSON.
func saved(t *testing.T, h *History) string {
	t.Helper()
	var buf bytes.Buffer
	if err := h.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// checkVisible asserts that k holds exactly the samples want through
// every read path: Estimate, EstimateAt, Samples, Len, Save and Dump.
func checkVisible(t *testing.T, step string, h *History, e *Entry, want ...float64) {
	t.Helper()
	k := e.key
	if got := h.Samples(k); got != len(want) {
		t.Fatalf("%s: Samples = %d, want %d", step, got, len(want))
	}
	if got := h.Len(); got != min(len(want), 1) {
		t.Fatalf("%s: Len = %d, want %d", step, got, min(len(want), 1))
	}
	inSave := strings.Contains(saved(t, h), k.WorkerClass)
	inDump := strings.Contains(h.Dump(), k.WorkerClass)
	if inSave != (len(want) > 0) || inDump != (len(want) > 0) {
		t.Fatalf("%s: key in Save %v, in Dump %v, want %v", step, inSave, inDump, len(want) > 0)
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

// TestHandleSurvivesInvalidateResetLoad checks that a held handle stays
// live across every operation that drops or replaces samples: a later
// RecordAt is what Estimate, Samples, Save and Dump see for its key.
func TestHandleSurvivesInvalidateResetLoad(t *testing.T) {
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
	h.RecordAt(e, 4)
	checkVisible(t, "recorded after Reset", h, e, 4)

	src := NewHistory()
	src.Record(k, 6)
	src.Record(k, 8)
	if err := h.Load(strings.NewReader(saved(t, src))); err != nil {
		t.Fatal(err)
	}
	if h.Handle(k) != e {
		t.Fatal("Load replaced a held entry")
	}
	checkVisible(t, "loaded", h, e, 6, 8)
	h.RecordAt(e, 10)
	checkVisible(t, "recorded after Load", h, e, 6, 8, 10)
}

// recordEvent is one OnRecord call.
type recordEvent struct {
	key                 Key
	observed, predicted units.Seconds
	calibrated          bool
}

// TestHandlePathMatchesKeyPath records one sequence — with invalidations
// and a reset mixed in — once through Record(k) and once through handles
// resolved before the first sample, and checks that Save, Dump and the
// OnRecord stream are identical.
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

	run := func(viaHandles bool) (string, string, []recordEvent) {
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
		return saved(t, h), h.Dump(), events
	}
	saveK, dumpK, eventsK := run(false)
	saveH, dumpH, eventsH := run(true)
	if saveK != saveH {
		t.Errorf("Save differs:\nkey path:\n%s\nhandle path:\n%s", saveK, saveH)
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
// through leave Len, Dump and Save as if they had not been asked for.
func TestEmptyHandlesStayInvisible(t *testing.T) {
	h := NewHistory()
	h.Record(key("dgemm", "cuda0@400W"), 1)
	want, wantDump := saved(t, h), h.Dump()
	for i := 0; i < 5; i++ {
		h.Handle(Key{Codelet: "never", Footprint: uint64(i), WorkerClass: "cuda9@1W"})
	}
	if h.Len() != 1 || saved(t, h) != want || h.Dump() != wantDump {
		t.Errorf("unrecorded handles changed the model: Len %d\n%s", h.Len(), h.Dump())
	}
}
