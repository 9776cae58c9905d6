package main

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/dyncap"
	"repro/internal/platform"
	"repro/internal/powercap"
	"repro/internal/prec"
	"repro/internal/report"
	"repro/internal/units"
)

// runAutoPlan demonstrates the automatic plan search the paper's
// conclusion calls for: the most efficient plan within a slowdown
// budget, plus the Pareto frontier.
func runAutoPlan(o *options) error {
	platforms, err := core.Platforms(o.platform)
	if err != nil {
		return err
	}
	for _, plat := range platforms {
		row, err := core.LookupTableII(plat, core.GEMM, prec.Double)
		if err != nil {
			return err
		}
		row = core.ScaleRow(row, o.scale)
		res, err := core.AutoPlan(row, o.budget, core.SweepOptions{Scheduler: o.scheduler, Telemetry: o.telem})
		if err != nil {
			return err
		}
		fmt.Printf("AutoPlan on %s (%s, budget %.0f%% slowdown): chose %s — eff %.1f Gflop/s/W (%+.1f%%), perf %+.1f%%\n",
			plat, row.Workload(), o.budget, res.Chosen.Plan,
			res.Chosen.Result.Efficiency, res.Chosen.Delta.EffGainPct, res.Chosen.Delta.PerfPct)
		tbl := report.NewTable("  Pareto frontier (no plan is both faster and more efficient)",
			"plan", "Gflop/s", "Gflop/s/W", "perf Δ%", "eff Δ%")
		for _, f := range res.Frontier {
			tbl.AddRow(f.Plan.String(), float64(f.Result.Rate)/units.Giga,
				f.Result.Efficiency, f.Delta.PerfPct, f.Delta.EffGainPct)
		}
		if err := emit(o, tbl); err != nil {
			return err
		}
		fmt.Println()
	}
	return nil
}

// runAblation quantifies the design choices DESIGN.md calls out:
// scheduler policy, stale performance models after a cap change, and
// data-aware placement (dm against dmda and dmdas).
func runAblation(o *options) error {
	row, err := core.LookupTableII(platform.FourA100Name, core.GEMM, prec.Double)
	if err != nil {
		return err
	}
	row = core.ScaleRow(row, o.scale)
	spec, err := platform.SpecByName(row.Platform)
	if err != nil {
		return err
	}
	plan := powercap.MustParsePlan("HHBB")

	// 1. Scheduler ablation under an unbalanced plan: the dm family
	// should exploit the heterogeneity, the baselines should not.
	tbl := report.NewTable(
		fmt.Sprintf("Ablation — scheduler policy under %s (%s on %s)", plan, row.Workload(), row.Platform),
		"scheduler", "Gflop/s", "Gflop/s/W", "GPU task share %")
	for _, sched := range []string{"eager", "random", "ws", "dm", "dmda", "dmdas", "dmdae"} {
		res, err := core.Run(core.Config{
			Spec: spec, Workload: row.Workload(), Plan: plan,
			BestFrac: row.BestFrac, Scheduler: sched, Telemetry: o.telem,
		})
		if err != nil {
			return fmt.Errorf("scheduler %s: %w", sched, err)
		}
		tbl.AddRow(sched, float64(res.Rate)/units.Giga, res.Efficiency, res.Stats.GPUShare*100)
	}
	if err := emit(o, tbl); err != nil {
		return err
	}
	fmt.Println()

	// 2. Calibration ablation: the paper's protocol (recalibrate after
	// every cap change; our worker classes embed the cap, enforcing it)
	// against the counterfactual where models calibrated at default
	// power are reused under the caps — the scheduler then plans with
	// estimates that are wrong on every capped GPU.  An asymmetric
	// B-heavy plan makes the misplacement visible.
	stalePlan := powercap.MustParsePlan("HBBB")
	tbl = report.NewTable(
		fmt.Sprintf("Ablation — performance-model calibration after the cap change (%s)", stalePlan),
		"models", "Gflop/s", "Gflop/s/W")
	for _, stale := range []bool{false, true} {
		res, err := core.Run(core.Config{
			Spec: spec, Workload: row.Workload(), Plan: stalePlan,
			BestFrac: row.BestFrac, StaleModels: stale, Telemetry: o.telem,
		})
		if err != nil {
			return err
		}
		label := "recalibrated (paper protocol)"
		if stale {
			label = "stale (calibrated uncapped)"
		}
		tbl.AddRow(label, float64(res.Rate)/units.Giga, res.Efficiency)
	}
	if err := emit(o, tbl); err != nil {
		return err
	}
	fmt.Println()

	// 3. Transfer-model ablation via the scheduler: dm ignores data
	// placement, dmda accounts for it.
	tbl = report.NewTable("Ablation — data-aware placement (dm vs dmda vs dmdas)",
		"scheduler", "Gflop/s", "data moved (GB)")
	for _, sched := range []string{"dm", "dmda", "dmdas"} {
		res, err := core.Run(core.Config{
			Spec: spec, Workload: row.Workload(), Plan: plan,
			BestFrac: row.BestFrac, Scheduler: sched, Telemetry: o.telem,
		})
		if err != nil {
			return err
		}
		tbl.AddRow(sched, float64(res.Rate)/units.Giga, float64(res.Stats.TransferBytes)/units.Giga)
	}
	if err := emit(o, tbl); err != nil {
		return err
	}
	fmt.Println()

	// 4. Dynamic capping (future work): the online controller against
	// the static default and the static best plan.  The controller needs
	// run time to converge, so this section uses a longer workload.
	long := row.Workload()
	long.N = long.NB * 16
	base, err := core.Run(core.Config{Spec: spec, Workload: long, BestFrac: row.BestFrac, Telemetry: o.telem})
	if err != nil {
		return err
	}
	allB, err := core.Run(core.Config{
		Spec: spec, Workload: long, BestFrac: row.BestFrac,
		Plan:      powercap.MustParsePlan(strings.Repeat("B", spec.GPUCount)),
		Telemetry: o.telem,
	})
	if err != nil {
		return err
	}
	dyn, ctl, err := core.RunDynamic(core.Config{Spec: spec, Workload: long, BestFrac: row.BestFrac, Telemetry: o.telem},
		dyncap.DefaultConfig())
	if err != nil {
		return err
	}
	tbl = report.NewTable("Extension — online cap controller vs static plans",
		"configuration", "Gflop/s", "Gflop/s/W", "eff vs default %")
	for _, r := range []*core.Result{base, allB, dyn} {
		tbl.AddRow(r.Plan, float64(r.Rate)/units.Giga, r.Efficiency,
			units.PercentChange(base.Efficiency, r.Efficiency))
	}
	if err := emit(o, tbl); err != nil {
		return err
	}
	fmt.Printf("controller: %d ticks, final caps %v (static P_best is %.0f W)\n",
		ctl.Ticks(), ctl.Caps(), row.BestFrac*float64(spec.GPUArch.TDP))
	return nil
}

// runBudget prints the node-level power-budget frontier: for a global
// GPU Watt budget, the optimal per-GPU cap split and the resulting
// throughput and efficiency — the power-constrained operation scenario
// of the paper's related work, answered with our calibrated curves.
func runBudget(o *options) error {
	spec := platform.FourA100Spec()
	arch := spec.GPUArch
	const work = 3.8e11 // one 5760-tile dgemm launch
	pts, err := powercap.BudgetSweep(arch, spec.GPUCount, prec.Double, work, 13)
	if err != nil {
		return err
	}
	tbl := report.NewTable(
		fmt.Sprintf("Extension — GPU power budget frontier, dgemm on %d x %s", spec.GPUCount, arch.Name),
		"budget_W", "agg Gflop/s", "agg power_W", "Gflop/s/W")
	for _, p := range pts {
		tbl.AddRow(float64(p.Budget), float64(p.Rate)/units.Giga, float64(p.Power), p.EffGFW)
	}
	if err := emit(o, tbl); err != nil {
		return err
	}
	// Show one concrete allocation.
	alloc, err := powercap.AllocateBudget(arch, spec.GPUCount, 1000, prec.Double, work, 0)
	if err != nil {
		return err
	}
	fmt.Printf("example: 1000 W over %d GPUs -> caps %v, %.0f Gflop/s at %.0f W\n",
		spec.GPUCount, alloc.Caps, float64(alloc.Rate)/units.Giga, float64(alloc.Power))
	return nil
}
