package telemetry

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/telemetry/agg"
)

// getFull fetches a path and returns status, Content-Type and body.
func getFull(t *testing.T, base, path string) (int, string, string) {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get("Content-Type"), string(body)
}

// TestServerContentTypes pins the Content-Type of every endpoint: the
// Prometheus scraper and JSON consumers both dispatch on it.
func TestServerContentTypes(t *testing.T) {
	c := NewCollector()
	_, rt, _ := attachRun(t, c, "dmda", 5, SamplerConfig{})
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(c))
	defer srv.Close()

	want := map[string]string{
		"/metrics":         "text/plain; version=0.0.4; charset=utf-8",
		"/metrics.json":    "application/json",
		"/timeseries.json": "application/json",
		"/decisions.json":  "application/json",
		"/":                "text/plain; charset=utf-8",
	}
	for path, ct := range want {
		code, got, _ := getFull(t, srv.URL, path)
		if code != http.StatusOK {
			t.Errorf("%s: status %d", path, code)
		}
		if got != ct {
			t.Errorf("%s: Content-Type %q, want %q", path, got, ct)
		}
	}
}

// TestServerIndex lists every endpoint on the index page, so a human
// pointing a browser at the port can discover the rest.
func TestServerIndex(t *testing.T) {
	srv := httptest.NewServer(Handler(NewCollector()))
	defer srv.Close()
	code, _, body := getFull(t, srv.URL, "/")
	if code != http.StatusOK {
		t.Fatalf("index: %d", code)
	}
	for _, ep := range []string{"/metrics", "/metrics.json", "/timeseries.json", "/decisions.json", "/surface", "/progress", "/events", "/debug/pprof/"} {
		if !strings.Contains(body, ep) {
			t.Errorf("index missing %s", ep)
		}
	}
}

// TestServerSurfaceEndpoint covers the /surface state machine: 503
// before an aggregation surface is attached, 400 for unknown metrics,
// and a valid JSON surface document otherwise.
func TestServerSurfaceEndpoint(t *testing.T) {
	c := NewCollector()
	srv := httptest.NewServer(Handler(c))
	defer srv.Close()

	if code, _, body := getFull(t, srv.URL, "/surface"); code != http.StatusServiceUnavailable ||
		!strings.Contains(body, "-agg-dir") {
		t.Fatalf("/surface before attach: %d %q (should say how to enable aggregation)", code, body)
	}

	s := agg.NewSurface(0)
	s.Add(agg.CellRollup{
		Key: "p|w|HB|seed=0", GroupKey: "p|w|HB",
		Platform: "p", Workload: "w", Plan: "HB",
		MakespanS: 10, EnergyJ: 1000, GFlopsPerWatt: 0.5,
		EDP: 10000, ED2P: 100000,
	})
	c.SetSurface(s)

	if code, _, body := getFull(t, srv.URL, "/surface?metric=bogus"); code != http.StatusBadRequest ||
		!strings.Contains(body, "bogus") {
		t.Fatalf("/surface?metric=bogus: %d %q", code, body)
	}

	for _, q := range []string{"", "?metric=" + agg.MetricEDP, "?metric=" + agg.MetricEfficiency} {
		code, ct, body := getFull(t, srv.URL, "/surface"+q)
		if code != http.StatusOK {
			t.Fatalf("/surface%s: %d", q, code)
		}
		if ct != "application/json" {
			t.Errorf("/surface%s: Content-Type %q", q, ct)
		}
		var doc agg.SurfaceDoc
		if err := json.Unmarshal([]byte(body), &doc); err != nil {
			t.Fatalf("/surface%s: invalid JSON: %v", q, err)
		}
		if doc.Cells != 1 {
			t.Errorf("/surface%s: cells = %d, want 1", q, doc.Cells)
		}
	}

	// The narrowed query holds only the requested metric's plans.
	_, _, body := getFull(t, srv.URL, "/surface?metric="+agg.MetricEDP)
	var doc agg.SurfaceDoc
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Best) != 1 || doc.Best[agg.MetricEDP] == nil {
		t.Errorf("narrowed surface best = %v, want only %s", doc.Best, agg.MetricEDP)
	}

	// Detach: the endpoint degrades back to 503.
	c.SetSurface(nil)
	if code, _, _ := getFull(t, srv.URL, "/surface"); code != http.StatusServiceUnavailable {
		t.Errorf("/surface after detach: %d", code)
	}
}

// TestServerBuildInfoExposed: every collector exports capsim_build_info
// with version and goversion labels, value 1.
func TestServerBuildInfoExposed(t *testing.T) {
	srv := httptest.NewServer(Handler(NewCollector()))
	defer srv.Close()
	code, _, body := getFull(t, srv.URL, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: %d", code)
	}
	if !strings.Contains(body, `goversion="go`) ||
		!strings.Contains(body, `version="`+Version+`"`) {
		t.Errorf("capsim_build_info missing or unlabelled:\n%s", body)
	}
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "capsim_build_info{") && !strings.HasSuffix(line, " 1") {
			t.Errorf("build info value must be 1: %q", line)
		}
	}
}

// TestServerDroppedRollupsCounter: the backpressure drop counter is
// registered from the start (a scrape shows 0, not absence) and
// accumulates through ObserveDroppedRollups.
func TestServerDroppedRollupsCounter(t *testing.T) {
	c := NewCollector()
	srv := httptest.NewServer(Handler(c))
	defer srv.Close()

	_, _, body := getFull(t, srv.URL, "/metrics")
	if !strings.Contains(body, "capsim_telemetry_dropped_total 0") {
		t.Errorf("dropped counter should scrape as 0 before any drops:\n%s", body)
	}
	c.ObserveDroppedRollups(3)
	c.ObserveDroppedRollups(0)  // no-op
	c.ObserveDroppedRollups(-1) // no-op
	c.ObserveDroppedRollups(2)
	_, _, body = getFull(t, srv.URL, "/metrics")
	if !strings.Contains(body, "capsim_telemetry_dropped_total 5") {
		t.Errorf("dropped counter should read 5:\n%s", body)
	}
}
