package telemetry

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/perfmodel"
	"repro/internal/units"
)

func TestCollectorCountsRunEvents(t *testing.T) {
	c := NewCollector()
	_, rt, _ := attachRun(t, c, "dmda", 15, SamplerConfig{})
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if got := c.tasksSubmitted.With("dgemm").Value(); got != 15 {
		t.Errorf("submitted = %v, want 15", got)
	}
	var completed float64
	for _, w := range rt.Workers() {
		completed += float64(w.TasksRun())
	}
	if completed != 15 {
		t.Errorf("workers ran %v tasks, want 15", completed)
	}
	if got := c.Decisions.Total(); got == 0 {
		t.Error("no scheduler decisions logged")
	}
	if got := c.taskDuration.With("cuda").Count(); got != 15 {
		t.Errorf("duration observations = %d, want 15", got)
	}
}

func TestInstallModelHook(t *testing.T) {
	c := NewCollector()
	h := perfmodel.NewHistory()
	c.InstallModelHook(h)
	k := perfmodel.Key{Codelet: "dgemm", Footprint: 1, WorkerClass: "cuda@250W"}
	// The first MinSamples observations calibrate; later ones produce
	// estimate-error samples.
	min := h.MinSamples
	for i := 0; i < min+3; i++ {
		h.Record(k, units.Seconds(0.1))
	}
	if got := c.modelRecords.With("cuda@250W").Value(); got != float64(min+3) {
		t.Errorf("records = %v, want %d", got, min+3)
	}
	if got := c.calibrations.With("cuda@250W").Value(); got != float64(min) {
		t.Errorf("calibrations = %v, want %d", got, min)
	}
	// Identical observations → zero relative error, all in first bucket.
	if got := c.estimateErr.With().Count(); got != 3 {
		t.Errorf("error observations = %d, want 3", got)
	}
}

func TestServerEndpoints(t *testing.T) {
	c := NewCollector()
	srv := httptest.NewServer(Handler(c))
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	// Before any run is attached, /timeseries.json is unavailable.
	if code, _ := get("/timeseries.json"); code != http.StatusServiceUnavailable {
		t.Errorf("/timeseries.json before attach: %d", code)
	}

	_, rt, _ := attachRun(t, c, "dmda", 10, SamplerConfig{})
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}

	code, body := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: %d", code)
	}
	for _, want := range []string{
		"capsim_gpu_power_watts{", "capsim_gpu_cap_watts{", "capsim_gpu_energy_joules{",
		"capsim_tasks_submitted_total{", "capsim_tasks_completed_total{",
		"capsim_sched_decisions_total{", "capsim_worker_queue_depth{",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	if code, body := get("/timeseries.json"); code != http.StatusOK || !strings.Contains(body, `"samples"`) {
		t.Errorf("/timeseries.json: %d, body %.80s", code, body)
	}
	if code, body := get("/decisions.json"); code != http.StatusOK || !strings.Contains(body, `"decisions"`) {
		t.Errorf("/decisions.json: %d, body %.80s", code, body)
	}
	if code, body := get("/metrics.json"); code != http.StatusOK || !strings.Contains(body, `"series"`) {
		t.Errorf("/metrics.json: %d, body %.80s", code, body)
	}
	if code, _ := get("/nope"); code != http.StatusNotFound {
		t.Errorf("/nope: %d", code)
	}
}

func TestServeBindsAndCloses(t *testing.T) {
	c := NewCollector()
	s, err := Serve("127.0.0.1:0", c)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + s.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("status = %d", resp.StatusCode)
	}
	if err := s.Close(); err != nil {
		t.Error(err)
	}
}

func TestCollectorObserverWithoutSampler(t *testing.T) {
	// Observer callbacks before RunScope.Attach must not panic; worker
	// labels degrade to "unknown".
	c := NewCollector()
	_, rt := newRun(t, c.NewRunScope(), "eager", 3)
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.Registry.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `kind="unknown"`) {
		t.Error("expected unknown worker kind before Attach")
	}
}
