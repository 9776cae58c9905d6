package core

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/dyncap"
	"repro/internal/faults"
	"repro/internal/prec"
	"repro/internal/starpu"
	"repro/internal/telemetry"
)

// measuredRuntime runs fn and returns the measured runtime of the one
// run it makes.
func measuredRuntime(t *testing.T, fn func() error) *starpu.Runtime {
	t.Helper()
	var rt *starpu.Runtime
	measuredHook = func(r *starpu.Runtime) { rt = r }
	defer func() { measuredHook = nil }()
	if err := fn(); err != nil {
		t.Fatal(err)
	}
	if rt == nil {
		t.Fatal("no measured runtime")
	}
	return rt
}

// TestRetainedRuntimesKeepTheirStorage: a runtime that outlives its run
// — returned by Inspect, held by RunDynamic's controller or a Telemetry
// run's sampler, or reachable through a failed run's
// *starpu.PermanentFaultError — never has its storage recycled.  A deep
// snapshot of its DAG is unchanged after later Runs of the same and of
// a bigger shape, which reuse whatever storage Run recycles.  The
// control, a plain Run, is recycled: its task index reads zeroed once
// Run returns.
func TestRetainedRuntimesKeepTheirStorage(t *testing.T) {
	later := func() {
		t.Helper()
		bigger := smallGemm()
		bigger.Workload = Workload{Op: POTRF, N: 5760 * 8, NB: 5760, Precision: prec.Double}
		for _, cfg := range []Config{smallGemm(), bigger, smallGemm()} {
			if _, err := Run(cfg); err != nil {
				t.Fatal(err)
			}
		}
	}
	later() // warm the pool and the DAG cache

	cases := []struct {
		name string
		run  func() error
	}{
		{"inspect", func() error {
			_, err := Inspect(smallGemm())
			return err
		}},
		{"dynamic", func() error {
			_, _, err := RunDynamic(smallGemm(), dyncap.DefaultConfig())
			return err
		}},
		{"telemetry", func() error {
			cfg := smallGemm()
			cfg.Telemetry = telemetry.NewCollector()
			_, err := Run(cfg)
			return err
		}},
		{"permanent-fault", func() error {
			cfg := smallGemm()
			cfg.Faults = faults.Spec{TaskFail: 0.9, Retries: 1}
			_, err := Run(cfg)
			var pf *starpu.PermanentFaultError
			if !errors.As(err, &pf) {
				return errors.Join(errors.New("want a *starpu.PermanentFaultError"), err)
			}
			return nil
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rt := measuredRuntime(t, c.run)
			before := dagDigest(rt)
			later()
			if after := dagDigest(rt); !slices.Equal(before, after) {
				t.Fatal("a later Run rewrote the retained runtime's DAG")
			}
		})
	}

	t.Run("control", func(t *testing.T) {
		rt := measuredRuntime(t, func() error {
			_, err := Run(smallGemm())
			return err
		})
		if ts := rt.Tasks(); len(ts) == 0 || ts[0] != nil {
			t.Fatal("Run did not recycle its runtime's storage")
		}
	})
}
