package core

import (
	"bytes"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/dyncap"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/powercap"
	"repro/internal/prec"
	"repro/internal/telemetry"
)

// seamCell runs one cell with a bus and renders every event the cell
// published, in bus order: type, GPU, worker, virtual time and detail.
// It also checks each event names the cell and its plan label.
func seamCell(t *testing.T, cfg Config, dynamic bool) (events []string, err error) {
	t.Helper()
	bus := obs.NewBus()
	sub := bus.Subscribe(1 << 10)
	cfg.Events = bus
	plan, key := "dynamic", cfg
	if dynamic {
		_, _, err = RunDynamic(cfg, dyncap.DefaultConfig())
		key.Plan = powercap.MustParsePlan(repeat('H', cfg.Spec.GPUCount))
	} else {
		plan = cfg.Plan.String()
		_, err = Run(cfg)
	}
	for _, ev := range sub.Drain() {
		if ev.Cell != key.CheckpointKey() || ev.Plan != plan {
			t.Errorf("%s event names cell %q plan %q, want %q %q", ev.Type, ev.Cell, ev.Plan, key.CheckpointKey(), plan)
		}
		events = append(events, fmt.Sprintf("%s gpu=%d worker=%d t=%s %q", ev.Type, ev.GPU, ev.Worker,
			strconv.FormatFloat(ev.SimTime, 'g', -1, 64), ev.Detail))
	}
	return events, err
}

func mustFaults(t *testing.T, spec string) faults.Spec {
	t.Helper()
	s, err := faults.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSeamEventSequences pins, cell by cell, the fault events a run
// publishes on its bus: cap writes that exhausted their retries, breaker
// trips, worker evictions and the closing DegradedRun, in bus order and
// with their virtual times.  The cells cover setup-time cap failures, a
// mid-run dropout, a dynamic controller whose breaker trips evict
// several boards at one tick, and runs that fail after a fault event
// fired.
func TestSeamEventSequences(t *testing.T) {
	v100, err := platform.SpecByName(platform.TwoV100Name)
	if err != nil {
		t.Fatal(err)
	}
	const exhausted = `"gave up after 5 attempts: nvml: ERROR_UNKNOWN"`
	cases := []struct {
		name    string
		cfg     func() Config
		dynamic bool
		wantErr string
		want    []string
	}{
		{
			name: "capfail=1 breaker=1",
			cfg: func() Config {
				return Config{Spec: v100, Plan: powercap.MustParsePlan("BB"), BestFrac: 0.62, Seed: 5,
					Workload: Workload{Op: GEMM, N: 2 * 2880, NB: 2880, Precision: prec.Double},
					Faults:   mustFaults(t, "capfail=1"), CapBreaker: 1}
			},
			want: []string{
				`CapRetryExhausted gpu=0 worker=0 t=0.03 ` + exhausted,
				`BreakerTripped gpu=0 worker=0 t=0.03 ""`,
				`CapRetryExhausted gpu=1 worker=0 t=0.060000000000000005 ` + exhausted,
				`BreakerTripped gpu=1 worker=0 t=0.060000000000000005 ""`,
				`DegradedRun gpu=0 worker=0 t=1.365029257142857 "__"`,
			},
		},
		{
			name: "dropout=1",
			cfg: func() Config {
				cfg := smallGemm()
				cfg.Plan = powercap.MustParsePlan("HHBB")
				cfg.Faults = mustFaults(t, "dropout=1")
				return cfg
			},
			want: []string{
				`WorkerEvicted gpu=0 worker=2 t=58.91730262066751 "gpu-dropout"`,
				`DegradedRun gpu=0 worker=0 t=1.4919587191012766 "HH_B"`,
			},
		},
		{
			name: "dynamic breaker trips",
			cfg: func() Config {
				cfg := smallGemm()
				cfg.Seed = 2
				cfg.Faults = mustFaults(t, "capfail=0.5")
				cfg.CapBreaker = 1
				return cfg
			},
			dynamic: true,
			want: []string{
				`CapRetryExhausted gpu=3 worker=0 t=0.052000000000000005 ` + exhausted,
				`BreakerTripped gpu=3 worker=0 t=0.052000000000000005 ""`,
				`BreakerTripped gpu=0 worker=0 t=70.15670727272727 ""`,
				`WorkerEvicted gpu=0 worker=0 t=70.15670727272727 "cap-breaker"`,
				`BreakerTripped gpu=1 worker=0 t=70.15670727272727 ""`,
				`WorkerEvicted gpu=0 worker=1 t=70.15670727272727 "cap-breaker"`,
				`BreakerTripped gpu=2 worker=0 t=70.15670727272727 ""`,
				`WorkerEvicted gpu=0 worker=2 t=70.15670727272727 "cap-breaker"`,
				`DegradedRun gpu=0 worker=0 t=69.97187687272728 "____"`,
			},
		},
		{
			name: "cap failure without breaker",
			cfg: func() Config {
				cfg := smallGemm()
				cfg.Plan = powercap.MustParsePlan("HHBB")
				cfg.Faults = mustFaults(t, "capfail=1")
				cfg.CapBreaker = -1
				return cfg
			},
			wantErr: "platform: GPU 0: cap",
			want:    []string{`CapRetryExhausted gpu=0 worker=0 t=0.03 ` + exhausted},
		},
		{
			name: "evictions then exhausted task retries",
			cfg: func() Config {
				cfg := smallGemm()
				cfg.Plan = powercap.MustParsePlan("HHHH")
				cfg.Seed = 2
				cfg.Faults = mustFaults(t, "dropout=2,taskfail=0.2,retries=1")
				return cfg
			},
			wantErr: "starpu: run incomplete",
			want: []string{
				`WorkerEvicted gpu=0 worker=2 t=58.379197707946936 "gpu-dropout"`,
				`WorkerEvicted gpu=0 worker=3 t=58.97781777895823 "gpu-dropout"`,
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := seamCell(t, tc.cfg(), tc.dynamic)
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("run failed: %v", err)
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Fatalf("error = %v, want one containing %q", err, tc.wantErr)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("events:\n  %s\nwant:\n  %s", strings.Join(got, "\n  "), strings.Join(tc.want, "\n  "))
			}
		})
	}
}

// TestDynamicCapTelemetry pins what a dynamic run reports to its
// telemetry collector: the controller's move counter and the sampler's
// cap-change events, both of which follow the controller's history.
func TestDynamicCapTelemetry(t *testing.T) {
	cfg := smallGemm()
	col := telemetry.NewCollector()
	cfg.Telemetry = col
	_, ctl, err := RunDynamic(cfg, dyncap.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := col.Registry.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	var counters []string
	for _, l := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(l, "capsim_dyncap_cap_moves_total{") || strings.HasPrefix(l, "capsim_cap_changes_total{") {
			counters = append(counters, l)
		}
	}
	var wantCounters []string
	for _, name := range []string{"capsim_cap_changes_total", "capsim_dyncap_cap_moves_total"} {
		for g := 0; g < 4; g++ {
			wantCounters = append(wantCounters, fmt.Sprintf(`%s{gpu="%d"} 2`, name, g))
		}
	}
	if !reflect.DeepEqual(counters, wantCounters) {
		t.Errorf("counters:\n  %s\nwant:\n  %s", strings.Join(counters, "\n  "), strings.Join(wantCounters, "\n  "))
	}

	var want []telemetry.CapEvent
	for _, tick := range []struct{ t, old, new float64 }{
		{58.51919570075589, 400, 368}, {59.01919570075589, 368, 336},
	} {
		for g := 0; g < 4; g++ {
			want = append(want, telemetry.CapEvent{T: tick.t, GPU: g, OldW: tick.old, NewW: tick.new})
		}
	}
	if got := col.Sampler().CapEvents(); !reflect.DeepEqual(got, want) {
		t.Errorf("cap events = %+v\nwant %+v", got, want)
	}
	if len(ctl.History()) != len(want) {
		t.Errorf("controller history has %d moves, sampler %d events", len(ctl.History()), len(want))
	}
}
