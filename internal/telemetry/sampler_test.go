package telemetry

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/platform"
	"repro/internal/prec"
	"repro/internal/starpu"
)

// newRun builds a small instrumented platform+runtime pair with n
// independent GEMM-sized CUDA tasks submitted, observed by obs (a
// collector's *RunScope).
func newRun(t *testing.T, obs starpu.Observer, sched string, n int) (*platform.Platform, *starpu.Runtime) {
	t.Helper()
	plat, err := platform.New(platform.TwoV100Spec())
	if err != nil {
		t.Fatal(err)
	}
	rt, err := starpu.New(plat, starpu.Config{Scheduler: sched, Observer: obs})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		err := rt.Submit(&starpu.Task{
			Codelet: &starpu.Codelet{Name: "dgemm", Precision: prec.Double, CanCUDA: true},
			Work:    3.8e11,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return plat, rt
}

// attachRun builds a run observed through a fresh RunScope of c and
// attaches the scope's sampler, as core.Run does for a measured pass.
func attachRun(t *testing.T, c *Collector, sched string, n int, cfg SamplerConfig) (*platform.Platform, *starpu.Runtime, *Sampler) {
	t.Helper()
	scope := c.NewRunScope()
	plat, rt := newRun(t, scope, sched, n)
	s, err := scope.Attach(plat, rt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return plat, rt, s
}

func TestSamplerRecordsTimeSeries(t *testing.T) {
	c := NewCollector()
	plat, rt, s := attachRun(t, c, "dmda", 12, SamplerConfig{Interval: 0.05})
	makespan, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if makespan <= 0 {
		t.Fatalf("makespan = %v", makespan)
	}
	if !s.Stopped() {
		t.Error("sampler did not stop after the run drained")
	}

	nGPU := 0
	for i := 0; ; i++ {
		if _, ret := plat.NVML.DeviceGetHandleByIndex(i); ret.Error() != nil {
			break
		}
		nGPU = i + 1
	}
	if nGPU == 0 {
		t.Fatal("no GPUs on spec")
	}
	for g := 0; g < nGPU; g++ {
		series := s.GPUSeries(g)
		if len(series) == 0 {
			t.Fatalf("GPU %d: empty series", g)
		}
		var sawPower bool
		for i, sm := range series {
			if i > 0 && sm.T < series[i-1].T {
				t.Fatalf("GPU %d: samples out of order at %d", g, i)
			}
			if sm.PowerW > 0 {
				sawPower = true
			}
			if sm.Level != "L" && sm.Level != "B" && sm.Level != "H" {
				t.Errorf("GPU %d: bad level %q", g, sm.Level)
			}
			if sm.CapW <= 0 {
				t.Errorf("GPU %d: cap %v", g, sm.CapW)
			}
		}
		if !sawPower {
			t.Errorf("GPU %d: never saw nonzero power with tasks running", g)
		}
		last := series[len(series)-1]
		if last.EnergyJ <= 0 {
			t.Errorf("GPU %d: final energy %v", g, last.EnergyJ)
		}
	}

	// Worker series: some worker must have been busy at least once.
	busySeen := false
	for w := range rt.Workers() {
		for _, sm := range s.WorkerSeries(w) {
			if sm.BusyFrac > 0 || sm.Tasks > 0 {
				busySeen = true
			}
			if sm.BusyFrac < 0 || sm.BusyFrac > 1 {
				t.Errorf("worker %d: busy fraction %v out of [0,1]", w, sm.BusyFrac)
			}
		}
	}
	if !busySeen {
		t.Error("no worker sample shows activity")
	}
}

func TestSamplerMaxSamplesBounds(t *testing.T) {
	c := NewCollector()
	_, rt, s := attachRun(t, c, "dmda", 30, SamplerConfig{Interval: 0.001, MaxSamples: 5})
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if got := len(s.GPUSeries(0)); got > 5 {
		t.Errorf("retained %d samples > MaxSamples 5", got)
	}
}

func TestWriteTimeSeriesJSON(t *testing.T) {
	c := NewCollector()
	plat, rt, s := attachRun(t, c, "dmdas", 8, SamplerConfig{Interval: 0.05})
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	s.ObserveCapChange(plat.Engine().Now(), 0, 300, 250)

	var buf bytes.Buffer
	if err := s.WriteTimeSeriesJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		IntervalS float64 `json:"interval_s"`
		GPUs      []struct {
			GPU     int         `json:"gpu"`
			Samples []GPUSample `json:"samples"`
		} `json:"gpus"`
		Workers []struct {
			Worker  int            `json:"worker"`
			Name    string         `json:"name"`
			Kind    string         `json:"kind"`
			Samples []WorkerSample `json:"samples"`
		} `json:"workers"`
		CapEvents []CapEvent `json:"cap_events"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if doc.IntervalS != 0.05 {
		t.Errorf("interval_s = %v", doc.IntervalS)
	}
	if len(doc.GPUs) == 0 || len(doc.GPUs[0].Samples) == 0 {
		t.Error("no GPU samples exported")
	}
	if len(doc.Workers) != len(rt.Workers()) {
		t.Errorf("workers = %d, want %d", len(doc.Workers), len(rt.Workers()))
	}
	if len(doc.CapEvents) != 1 || doc.CapEvents[0].NewW != 250 {
		t.Errorf("cap_events = %+v", doc.CapEvents)
	}
}

func TestSamplerSummaryTable(t *testing.T) {
	c := NewCollector()
	_, rt, s := attachRun(t, c, "dmda", 10, SamplerConfig{Interval: 0.05})
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	tbl := s.SummaryTable()
	if tbl.Len() == 0 {
		t.Fatal("empty summary table")
	}
	out := tbl.String()
	if out == "" {
		t.Error("summary rendered empty")
	}
}
