// Package benchcheck pins the hot-path optimization work to a
// byte-identity contract.  Every optimization commit in the eventsim /
// starpu / perfmodel / platform / telemetry stack must replay this
// corpus — a fixed fleet of grid cells spanning platforms, operations,
// precisions, plans, schedulers, CPU caps, traces, ablations and
// injected faults — and produce exactly the digests recorded in
// testdata/corpus.golden.  The digest covers the full Result (rows,
// per-device energy, schedule stats, span traces, fault reports) plus
// the cell's aggregation rollup, so "faster" can never silently mean
// "different".
//
// The corpus deliberately reuses the reduced matrix orders of the
// top-level benchmarks (identical tile sizes, so identical per-task
// behaviour) to keep a full replay in the low seconds: it runs on every
// `go test ./...`, not just in CI.
package benchcheck

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/platform"
	"repro/internal/powercap"
	"repro/internal/prec"
	"repro/internal/units"
)

// Cell is one pinned corpus entry: a stable name (the golden-file key)
// and the exact configuration to replay.
type Cell struct {
	Name string
	Cfg  core.Config
}

// cell builds a corpus entry from a Table II row at a reduced order of
// `tiles` tiles per dimension, mirroring the reduction rule of the
// top-level figure benchmarks (tile size untouched, so per-task
// behaviour is identical to the full-size run).
func cell(name, platName string, op core.Operation, p prec.Precision, tiles int, plan string, mut func(*core.Config)) Cell {
	// Table II lists GEMM and POTRF rows only; GEQRF cells borrow the
	// POTRF row's geometry (same tile size, square factorization).
	lookupOp := op
	if op == core.GEQRF {
		lookupOp = core.POTRF
	}
	row, err := core.LookupTableII(platName, lookupOp, p)
	if err != nil {
		panic(fmt.Sprintf("benchcheck: corpus row %s: %v", name, err))
	}
	row.Op = op
	row.N = row.NB * tiles
	spec, err := platform.SpecByName(row.Platform)
	if err != nil {
		panic(fmt.Sprintf("benchcheck: corpus row %s: %v", name, err))
	}
	cfg := core.Config{
		Spec:     spec,
		Workload: row.Workload(),
		Plan:     powercap.MustParsePlan(plan),
		BestFrac: row.BestFrac,
		Seed:     core.CellSeed(7, name),
	}
	if mut != nil {
		mut(&cfg)
	}
	return Cell{Name: name, Cfg: cfg}
}

// Corpus returns the pinned cell fleet.  Do not reorder or rename
// entries: the golden file is keyed by name, and each cell's seed is
// derived from its name, so renaming a cell re-rolls its schedule.
// Adding cells is fine (regenerate the golden with -update).
func Corpus() []Cell {
	sched := func(s string) func(*core.Config) {
		return func(c *core.Config) { c.Scheduler = s }
	}
	traced := func(c *core.Config) { c.Trace = true }
	return []Cell{
		// Clean sweeps across platforms, ops, precisions and plans.
		cell("4xA100-gemm-d-HHBB", platform.FourA100Name, core.GEMM, prec.Double, 3, "HHBB", nil),
		cell("4xA100-gemm-d-BBBB-trace", platform.FourA100Name, core.GEMM, prec.Double, 3, "BBBB", traced),
		cell("4xA100-gemm-d-LLLL", platform.FourA100Name, core.GEMM, prec.Double, 3, "LLLL", nil),
		cell("4xA100-potrf-d-HHBB-trace", platform.FourA100Name, core.POTRF, prec.Double, 4, "HHBB", traced),
		cell("4xA100-potrf-s-HBLB", platform.FourA100Name, core.POTRF, prec.Single, 4, "HBLB", nil),
		cell("4xA100-gemm-s-HHHH", platform.FourA100Name, core.GEMM, prec.Single, 3, "HHHH", nil),
		cell("4xA100-geqrf-d-HHBB", platform.FourA100Name, core.GEQRF, prec.Double, 3, "HHBB", nil),
		cell("2xA100-gemm-d-HB-dmda", platform.TwoA100Name, core.GEMM, prec.Double, 3, "HB", sched("dmda")),
		cell("2xA100-gemm-s-BB-dm", platform.TwoA100Name, core.GEMM, prec.Single, 3, "BB", sched("dm")),
		cell("2xA100-potrf-d-LB-trace", platform.TwoA100Name, core.POTRF, prec.Double, 4, "LB", traced),
		cell("2xA100-potrf-s-HL-dmdae", platform.TwoA100Name, core.POTRF, prec.Single, 4, "HL", sched("dmdae")),
		cell("2xA100-geqrf-s-BB-trace", platform.TwoA100Name, core.GEQRF, prec.Single, 3, "BB", traced),
		cell("2xV100-gemm-d-HB-eager", platform.TwoV100Name, core.GEMM, prec.Double, 3, "HB", sched("eager")),
		cell("2xV100-gemm-d-BB-ws", platform.TwoV100Name, core.GEMM, prec.Double, 3, "BB", sched("ws")),
		cell("2xV100-gemm-s-LB-random", platform.TwoV100Name, core.GEMM, prec.Single, 3, "LB", sched("random")),
		// CPU caps, ablations.
		cell("2xV100-potrf-d-HB-cpucap", platform.TwoV100Name, core.POTRF, prec.Double, 4, "HB", func(c *core.Config) {
			c.CPUCaps = map[int]units.Watts{1: 60}
		}),
		cell("2xV100-potrf-s-BB-cold", platform.TwoV100Name, core.POTRF, prec.Single, 4, "BB", func(c *core.Config) {
			c.SkipCalibration = true
		}),
		cell("2xV100-gemm-d-HB-stale", platform.TwoV100Name, core.GEMM, prec.Double, 3, "HB", func(c *core.Config) {
			c.StaleModels = true
		}),
		// Faulted cells (deterministic injection; specs mirror the chaos
		// fleet's exemplars).
		cell("4xA100-gemm-d-HHBB-taskfail-trace", platform.FourA100Name, core.GEMM, prec.Double, 3, "HHBB", func(c *core.Config) {
			c.Trace = true
			c.Faults = faults.Spec{TaskFail: 0.05, Retries: 3}
		}),
		cell("4xA100-gemm-d-BBBB-dropout-trace", platform.FourA100Name, core.GEMM, prec.Double, 3, "BBBB", func(c *core.Config) {
			c.Trace = true
			c.Faults = faults.Spec{Dropouts: 1}
		}),
		cell("2xA100-potrf-d-BB-capfail", platform.TwoA100Name, core.POTRF, prec.Double, 4, "BB", func(c *core.Config) {
			c.Faults = faults.Spec{CapFail: 0.2, CapClamp: 0.2}
		}),
		cell("2xV100-gemm-s-HB-throttle-trace", platform.TwoV100Name, core.GEMM, prec.Single, 3, "HB", func(c *core.Config) {
			c.Trace = true
			c.Faults = faults.Spec{Throttles: 2}
		}),
		cell("4xA100-potrf-s-HHBB-chaos-trace", platform.FourA100Name, core.POTRF, prec.Single, 4, "HHBB", func(c *core.Config) {
			c.Trace = true
			c.Faults = faults.Spec{CapFail: 0.15, CapClamp: 0.15, Throttles: 1, Dropouts: 1, TaskFail: 0.03, Retries: 3}
		}),
		cell("2xV100-potrf-d-LL-taskfail", platform.TwoV100Name, core.POTRF, prec.Double, 4, "LL", func(c *core.Config) {
			c.Faults = faults.Spec{TaskFail: 0.08, Retries: 2}
		}),
	}
}

// Digest forwards to core.Digest, the byte-identity fingerprint of one
// completed cell.
func Digest(cfg core.Config, res *core.Result) (string, error) { return core.Digest(cfg, res) }
