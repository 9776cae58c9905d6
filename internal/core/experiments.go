package core

import (
	"fmt"
	"slices"

	"repro/internal/faults"
	"repro/internal/gpu"
	"repro/internal/platform"
	"repro/internal/powercap"
	"repro/internal/prec"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// TableIIRow is one configuration row of the paper's Table II: the
// matrix/tile sizes chosen per platform and operation, and the P_best
// cap fraction selected from the §II kernel study.
type TableIIRow struct {
	Platform  string
	Op        Operation
	N, NB     int
	Precision prec.Precision
	// BestFrac is "GPU P_best (B)" as a fraction of TDP.
	BestFrac float64
}

// Workload converts the row into a runnable workload.
func (r TableIIRow) Workload() Workload {
	return Workload{Op: r.Op, N: r.N, NB: r.NB, Precision: r.Precision}
}

// TableII reproduces the paper's Table II verbatim.
var TableII = []TableIIRow{
	{platform.TwoV100Name, GEMM, 43200, 2880, prec.Double, 0.62},
	{platform.TwoV100Name, GEMM, 43200, 2880, prec.Single, 0.60},
	{platform.TwoV100Name, POTRF, 96000, 1920, prec.Double, 0.56},
	{platform.TwoV100Name, POTRF, 96000, 1920, prec.Single, 0.66},
	{platform.TwoA100Name, GEMM, 69120, 5760, prec.Double, 0.78},
	{platform.TwoA100Name, GEMM, 69120, 5760, prec.Single, 0.60},
	{platform.TwoA100Name, POTRF, 115200, 2880, prec.Double, 0.78},
	{platform.TwoA100Name, POTRF, 115200, 2880, prec.Single, 0.60},
	{platform.FourA100Name, GEMM, 74880, 5760, prec.Double, 0.54},
	{platform.FourA100Name, GEMM, 74880, 5760, prec.Single, 0.40},
	{platform.FourA100Name, POTRF, 172800, 2880, prec.Double, 0.52},
	{platform.FourA100Name, POTRF, 172800, 2880, prec.Single, 0.38},
}

// LookupTableII finds the configuration for a (platform, op, precision).
func LookupTableII(platformName string, op Operation, p prec.Precision) (TableIIRow, error) {
	for _, r := range TableII {
		if r.Platform == platformName && r.Op == op && r.Precision == p {
			return r, nil
		}
	}
	return TableIIRow{}, fmt.Errorf("core: no Table II row for %s/%s/%s", platformName, op, p)
}

// Platforms expands a platform filter: "all" names the three Table II
// platforms, any other value must name one of them.
func Platforms(filter string) ([]string, error) {
	if filter == "all" {
		return []string{platform.FourA100Name, platform.TwoA100Name, platform.TwoV100Name}, nil
	}
	if _, err := platform.SpecByName(filter); err != nil {
		return nil, err
	}
	return []string{filter}, nil
}

// ExperimentRows is the experiment catalogue: the Table II rows, reduced
// by ScaleRow, that a plan-sweep experiment covers on the filtered
// platforms.  "grid" keeps every row in Table II order; "fig3" and
// "fig4" take GEMM then POTRF per platform in double and single
// precision.  capbench and the sweep service both select rows here, so
// a local run and a submitted job cover the same cells.
func ExperimentRows(experiment, platformFilter string, scale int) ([]TableIIRow, error) {
	platforms, err := Platforms(platformFilter)
	if err != nil {
		return nil, err
	}
	var rows []TableIIRow
	switch experiment {
	case "grid":
		for _, r := range TableII {
			if slices.Contains(platforms, r.Platform) {
				rows = append(rows, ScaleRow(r, scale))
			}
		}
	case "fig3", "fig4":
		p := prec.Double
		if experiment == "fig4" {
			p = prec.Single
		}
		for _, plat := range platforms {
			for _, op := range []Operation{GEMM, POTRF} {
				row, err := LookupTableII(plat, op, p)
				if err != nil {
					return nil, err
				}
				rows = append(rows, ScaleRow(row, scale))
			}
		}
	default:
		return nil, fmt.Errorf("core: unknown experiment %q (grid, fig3, fig4)", experiment)
	}
	return rows, nil
}

// Fig7TileSizes lists the additional tile sizes of Fig. 7 per
// (platform, op); every size divides the Table II matrix order so the
// tiling stays even.
func Fig7TileSizes(platformName string, op Operation) []int {
	switch {
	case platformName == platform.TwoV100Name && op == GEMM: // N = 43200
		return []int{2160, 2880, 4320}
	case platformName == platform.TwoV100Name && op == POTRF: // N = 96000
		return []int{1920, 2400, 3200}
	case platformName == platform.TwoA100Name && op == GEMM: // N = 69120
		return []int{3456, 5760, 6912}
	case platformName == platform.TwoA100Name && op == POTRF: // N = 115200
		return []int{2880, 3840, 5760}
	case platformName == platform.FourA100Name && op == GEMM: // N = 74880
		return []int{3744, 5760, 7488}
	case platformName == platform.FourA100Name && op == POTRF: // N = 172800
		return []int{2880, 4320, 5760}
	}
	return nil
}

// PlanResult couples one plan's measurement with its deltas against the
// default configuration, the unit of Figs. 3 and 4.
type PlanResult struct {
	Plan   powercap.Plan
	Result *Result
	Delta  Delta
}

// SweepOptions tunes a plan sweep.
type SweepOptions struct {
	// CPUCaps applies RAPL caps during every run (Fig. 6's scenario).
	CPUCaps map[int]units.Watts
	// Scheduler overrides dmdas.
	Scheduler string
	// Plans overrides the canonical enumeration.
	Plans []powercap.Plan
	// Seed for randomised schedulers.
	Seed int64
	// Telemetry instruments every run of the sweep (counters accumulate
	// across plans; the sampler follows the latest run).
	Telemetry *telemetry.Collector
	// Trace records a span trace for every cell into its Result (see
	// Config.Trace); TraceCellKey names each cell's artifacts.
	Trace bool
	// Faults injects deterministic hardware/software faults into every
	// measured pass of the sweep (see Config.Faults).  The zero spec
	// injects nothing and leaves cell seeds untouched.
	Faults faults.Spec
}

// SweepPlans measures a workload under every canonical plan on a
// platform, returning the paper's Fig. 3/4 data: per-plan performance
// change, energy change and absolute efficiency.  The all-H result is
// always measured (first) as the baseline.
//
// SweepPlans is the serial entry point: it delegates to ParallelSweep
// with a single worker, so the serial and parallel paths share one
// implementation and cannot drift apart.
func SweepPlans(row TableIIRow, opt SweepOptions) ([]PlanResult, error) {
	out, err := ParallelSweep([]TableIIRow{row}, opt, ParallelOptions{Workers: 1})
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// Fig1Point is one sample of the single-GPU kernel sweep (Fig. 1): a
// cuBLAS-style GEMM on one matrix size under one cap.
type Fig1Point struct {
	CapW     units.Watts
	CapFrac  float64
	Size     int
	GFlops   float64
	PowerW   units.Watts
	EnergyJ  units.Joules // energy of one kernel execution
	EffGFW   float64      // Gflop/s/W
	Duty     float64
	ClockPct float64
}

// Fig1Sweep reproduces the §II kernel study: sweep the cap from the
// driver minimum to TDP in 2 %-of-TDP steps for each matrix size.
func Fig1Sweep(arch *gpu.Arch, p prec.Precision, sizes []int) []Fig1Point {
	curve := arch.Curve(p)
	step := float64(arch.TDP) * 0.02
	var out []Fig1Point
	for _, n := range sizes {
		work := units.Flops(2 * float64(n) * float64(n) * float64(n))
		occ := arch.Occupancy(work)
		for cap := float64(arch.MinPower); cap <= float64(arch.TDP)+step/2; cap += step {
			op := curve.Operate(units.Watts(cap), occ)
			dur := units.DurationFor(work, op.Rate)
			out = append(out, Fig1Point{
				CapW:     units.Watts(cap),
				CapFrac:  cap / float64(arch.TDP),
				Size:     n,
				GFlops:   float64(op.Rate) / units.Giga,
				PowerW:   op.Power,
				EnergyJ:  units.Energy(op.Power, dur),
				EffGFW:   units.GFlopsPerWatt(op.Rate, op.Power),
				Duty:     op.Duty,
				ClockPct: op.X * 100,
			})
		}
	}
	return out
}

// Table1Row is one line of the paper's Table I, recomputed from the
// model by the same sweep protocol.
type Table1Row struct {
	Arch      string
	Precision prec.Precision
	Size      int
	// BestCapPct is the efficiency-optimal cap as % of TDP.
	BestCapPct float64
	// SavingPct is the efficiency gain at that cap vs no cap, in %.
	SavingPct float64
	// SlowdownPct is the performance cost at that cap, in %.
	SlowdownPct float64
}

// Table1 recomputes Table I: the best configuration per architecture
// and precision, using the paper's per-arch sweep sizes.
func Table1() []Table1Row {
	type entry struct {
		arch *gpu.Arch
		size int
	}
	entries := []entry{
		{gpu.A100SXM4(), 5120},
		{gpu.A100PCIe(), 5760},
		{gpu.V100PCIe(), 5120},
	}
	var rows []Table1Row
	for _, e := range entries {
		for _, p := range []prec.Precision{prec.Single, prec.Double} {
			pts := Fig1Sweep(e.arch, p, []int{e.size})
			best := pts[0]
			var atTDP Fig1Point
			for _, pt := range pts {
				if pt.EffGFW > best.EffGFW {
					best = pt
				}
				atTDP = pt // last point is the TDP cap
			}
			rows = append(rows, Table1Row{
				Arch:        e.arch.Name,
				Precision:   p,
				Size:        e.size,
				BestCapPct:  best.CapFrac * 100,
				SavingPct:   (best.EffGFW/atTDP.EffGFW - 1) * 100,
				SlowdownPct: (1 - best.GFlops/atTDP.GFlops) * 100,
			})
		}
	}
	return rows
}
