package perfmodel

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/units"
)

func key(codelet, class string) Key {
	return Key{Codelet: codelet, Footprint: 0xabc, WorkerClass: class}
}

func TestHistoryEstimateIsMean(t *testing.T) {
	h := NewHistory()
	k := key("dgemm", "cuda0@400W")
	if _, ok := h.Estimate(k); ok {
		t.Fatal("empty model claimed calibration")
	}
	for _, d := range []float64{1.0, 2.0, 3.0} {
		h.Record(k, units.Seconds(d))
	}
	got, ok := h.Estimate(k)
	if !ok || math.Abs(float64(got)-2.0) > 1e-12 {
		t.Errorf("Estimate = %v, %v; want 2.0", got, ok)
	}
	if h.Samples(k) != 3 {
		t.Errorf("Samples = %d, want 3", h.Samples(k))
	}
	if sd := h.Stddev(k); math.Abs(float64(sd)-1.0) > 1e-12 {
		t.Errorf("Stddev = %v, want 1.0", sd)
	}
}

func TestHistoryMinSamples(t *testing.T) {
	h := NewHistory()
	h.MinSamples = 3
	k := key("dpotrf", "cpu")
	h.Record(k, 1)
	h.Record(k, 1)
	if _, ok := h.Estimate(k); ok {
		t.Error("estimate available below MinSamples")
	}
	h.Record(k, 1)
	if _, ok := h.Estimate(k); !ok {
		t.Error("estimate unavailable at MinSamples")
	}
}

func TestHistoryKeysAreIndependent(t *testing.T) {
	h := NewHistory()
	fast := key("dgemm", "cuda0@400W")
	slow := key("dgemm", "cuda1@216W")
	h.Record(fast, 1.0)
	h.Record(slow, 1.3)
	f, _ := h.Estimate(fast)
	s, _ := h.Estimate(slow)
	if !(f < s) {
		t.Errorf("capped class should estimate slower: %v vs %v", f, s)
	}
}

func TestHistoryNegativeDurationIgnored(t *testing.T) {
	h := NewHistory()
	k := key("x", "cpu")
	h.Record(k, -5)
	if h.Samples(k) != 0 {
		t.Error("negative duration recorded")
	}
}

func TestHistoryInvalidate(t *testing.T) {
	h := NewHistory()
	h.Record(key("dgemm", "cuda0@400W"), 1)
	h.Record(key("dgemm", "cuda1@216W"), 2)
	h.Record(key("dtrsm", "cuda1@216W"), 3)
	n := h.Invalidate(func(c string) bool { return strings.Contains(c, "cuda1") })
	if n != 2 {
		t.Errorf("invalidated %d entries, want 2", n)
	}
	if h.Len() != 1 {
		t.Errorf("Len = %d, want 1", h.Len())
	}
	h.Reset()
	if h.Len() != 0 {
		t.Error("Reset left entries")
	}
}

func TestHistoryMeanProperty(t *testing.T) {
	// Property: estimate equals the arithmetic mean of the samples.
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		h := NewHistory()
		k := key("k", "w")
		sum := 0.0
		for _, r := range raw {
			v := float64(r) / 100
			sum += v
			h.Record(k, units.Seconds(v))
		}
		want := sum / float64(len(raw))
		got, ok := h.Estimate(k)
		return ok && math.Abs(float64(got)-want) < 1e-9*(1+want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHistoryDump(t *testing.T) {
	h := NewHistory()
	h.Record(key("dgemm", "cuda0@400W"), 1)
	out := h.Dump()
	if !strings.Contains(out, "dgemm") || !strings.Contains(out, "cuda0@400W") {
		t.Errorf("Dump output missing fields: %q", out)
	}
}

func TestKeyString(t *testing.T) {
	k := Key{Codelet: "dgemm", Footprint: 0xff, WorkerClass: "cuda0@216W"}
	s := k.String()
	if !strings.Contains(s, "dgemm") || !strings.Contains(s, "ff") || !strings.Contains(s, "cuda0@216W") {
		t.Errorf("Key.String() = %q", s)
	}
}
