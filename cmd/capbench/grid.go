package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/units"
)

// runGrid reproduces the full evaluation grid — every Table II row
// (platform × operation × precision, optionally filtered by -platform)
// crossed with the canonical plan set — through the parallel executor.
// Each row's simulation is seeded by CellSeed(-seed, row identity), so
// the output is byte-identical at any -parallel value.
func runGrid(o *options) error {
	rows, err := core.ExperimentRows("grid", o.platform, o.scale)
	if err != nil {
		return err
	}

	sweep := o.sweepOpts(nil)
	res, err := core.RunGrid(core.GridSpec{
		Rows:     rows,
		Sweep:    sweep,
		RootSeed: o.seed,
	}, o.popt())
	if err != nil {
		return err
	}
	if err := writeSweepTraces(o, rows, sweep, o.seed, res.Results); err != nil {
		return err
	}
	if err := emitFaultSummary(o, rows, res.Results); err != nil {
		return err
	}

	// Per-row best plan plus the whole grid in one table: the summary
	// the paper's Figs. 3/4 distil into prose.
	tbl := report.NewTable(
		fmt.Sprintf("Grid — %d sweeps × canonical plans (%s, root seed %d)", len(rows), schedName(o), o.seed),
		"platform", "workload", "best plan", "best Gflop/s/W", "Δeff %", "Δperf %", "default Gflop/s/W")
	for i, row := range res.Rows {
		best := res.Results[i][0]
		var def core.PlanResult
		for _, pr := range res.Results[i] {
			if pr.Result.Efficiency > best.Result.Efficiency {
				best = pr
			}
			if pr.Plan.AllHigh() {
				def = pr
			}
		}
		tbl.AddRow(row.Platform, row.Workload().String(), best.Plan.String(),
			best.Result.Efficiency, best.Delta.EffGainPct, best.Delta.PerfPct,
			def.Result.Efficiency)
	}
	if err := emit(o, tbl); err != nil {
		return err
	}
	fmt.Println()

	// Full per-plan detail, one table per row, enumeration order.
	for i, row := range res.Rows {
		tbl := report.NewTable(
			fmt.Sprintf("  %s on %s", row.Workload(), row.Platform),
			"plan", "perf Δ%", "energy Δ%", "Gflop/s/W", "Gflop/s")
		for _, pr := range res.Results[i] {
			tbl.AddRow(pr.Plan.String(), pr.Delta.PerfPct, pr.Delta.EnergyPct,
				pr.Result.Efficiency, float64(pr.Result.Rate)/units.Giga)
		}
		if err := emit(o, tbl); err != nil {
			return err
		}
		fmt.Println()
	}
	return nil
}
