package trace

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/eventsim"
	"repro/internal/fsutil"
	"repro/internal/starpu"
	"repro/internal/units"
)

var update = flag.Bool("update", false, "rewrite golden files")

// emptyMachine is a Machine with no workers at all — the degenerate
// case that used to make WriteChromeTrace emit JSON null.
type emptyMachine struct{ engine *eventsim.Engine }

func (m *emptyMachine) Engine() *eventsim.Engine                           { return m.engine }
func (m *emptyMachine) NumWorkers() int                                    { return 0 }
func (m *emptyMachine) Worker(int) starpu.WorkerInfo                       { panic("no workers") }
func (m *emptyMachine) WorkerClass(int) string                             { return "" }
func (m *emptyMachine) CanRun(int, *starpu.Codelet) bool                   { return false }
func (m *emptyMachine) Exec(int, *starpu.Task) units.Seconds               { return 0 }
func (m *emptyMachine) OnTaskStart(int, *starpu.Task)                      {}
func (m *emptyMachine) OnTaskEnd(int, *starpu.Task)                        {}
func (m *emptyMachine) NumNodes() int                                      { return 1 }
func (m *emptyMachine) TransferTime(_, _ int, _ units.Bytes) units.Seconds { return 0 }
func (m *emptyMachine) ReserveLink(_, _ int, at units.Seconds, _ units.Bytes) (units.Seconds, units.Seconds) {
	return at, at
}

// TestWriteChromeTraceEmptyRuntime is the regression test for the nil
// slice bug: a run with nothing in it must still be a JSON array.
func TestWriteChromeTraceEmptyRuntime(t *testing.T) {
	rt, err := starpu.New(&emptyMachine{engine: eventsim.NewEngine()}, starpu.Config{Scheduler: "eager"})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, rt); err != nil {
		t.Fatal(err)
	}
	out := bytes.TrimSpace(buf.Bytes())
	if string(out) == "null" {
		t.Fatal("empty runtime encoded as JSON null")
	}
	var arr []json.RawMessage
	if err := json.Unmarshal(out, &arr); err != nil {
		t.Fatalf("output is not a JSON array: %v\n%s", err, out)
	}
	// Only the process_name metadata event remains.
	if len(arr) != 1 {
		t.Errorf("events = %d, want 1 (process_name)", len(arr))
	}
}

// shapeEvent is a chrome event with the timing redacted, leaving only
// the structural skeleton that must stay stable.
type shapeEvent struct {
	Name string `json:"name"`
	Cat  string `json:"cat,omitempty"`
	Ph   string `json:"ph"`
	Pid  int    `json:"pid"`
	Tid  int    `json:"tid"`
}

// TestWriteChromeTraceGoldenShape locks the trace's structure — the
// metadata rows, event names/categories and worker rows — against
// testdata/chrometrace_shape.golden (regenerate with go test -update).
func TestWriteChromeTraceGoldenShape(t *testing.T) {
	rt := runSmallPotrf(t)
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, rt); err != nil {
		t.Fatal(err)
	}

	var events []shapeEvent
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	shape, err := json.MarshalIndent(events, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	shape = append(shape, '\n')

	golden := filepath.Join("testdata", "chrometrace_shape.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := fsutil.WriteFileAtomic(golden, shape, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run go test ./internal/trace -update to create it)", err)
	}
	if !bytes.Equal(shape, want) {
		t.Errorf("trace shape drifted from golden file; run go test ./internal/trace -update if intended\ngot %d bytes, want %d", len(shape), len(want))
	}

	// Sanity checks beyond the golden bytes: full events carry valid
	// timings and land on real workers.
	var full []struct {
		Ph  string  `json:"ph"`
		Ts  float64 `json:"ts"`
		Dur float64 `json:"dur"`
		Tid int     `json:"tid"`
	}
	if err := json.Unmarshal(buf.Bytes(), &full); err != nil {
		t.Fatal(err)
	}
	nWorkers := len(rt.Workers())
	tasks := 0
	for _, e := range full {
		if e.Ph != "X" {
			continue
		}
		tasks++
		if e.Ts < 0 || e.Dur <= 0 {
			t.Errorf("event ts=%v dur=%v", e.Ts, e.Dur)
		}
		if e.Tid < 0 || e.Tid >= nWorkers {
			t.Errorf("event tid %d out of range", e.Tid)
		}
	}
	ran := 0
	for _, task := range rt.Tasks() {
		if task.WorkerID >= 0 {
			ran++
		}
	}
	if tasks != ran {
		t.Errorf("trace has %d task events, runtime ran %d", tasks, ran)
	}
}
