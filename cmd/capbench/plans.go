package main

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/prec"
	"repro/internal/report"
	"repro/internal/units"
)

// runFig34 prints the plan sweeps of Fig. 3 (double) or Fig. 4 (single):
// per plan, the performance and energy change against the default and
// the absolute efficiency, for GEMM and POTRF on each platform.
func runFig34(o *options, single bool) error {
	exp, fig := "fig3", "Fig. 3"
	if single {
		exp, fig = "fig4", "Fig. 4"
	}
	// Fan the whole figure's cells across the worker pool, then render in
	// row order — the output is byte-identical to a serial loop at any
	// -parallel.
	rows, err := core.ExperimentRows(exp, o.platform, o.scale)
	if err != nil {
		return err
	}
	opt := o.sweepOpts(nil)
	sweeps, err := runSweep(o, rows, opt)
	if err != nil {
		return err
	}
	for i, row := range rows {
		tbl := report.NewTable(
			fmt.Sprintf("%s — %s on %s (%s)", fig, row.Workload(), row.Platform, schedName(o)),
			"plan", "perf Δ%", "energy Δ%", "Gflop/s/W", "Gflop/s", "trend")
		for _, r := range sweeps[i] {
			tbl.AddRow(r.Plan.String(), r.Delta.PerfPct, r.Delta.EnergyPct,
				r.Result.Efficiency, float64(r.Result.Rate)/units.Giga,
				report.Bar(r.Delta.EffGainPct, 40, 12))
		}
		if err := emit(o, tbl); err != nil {
			return err
		}
		fmt.Println()
	}
	return nil
}

// sweepOpts builds the shared sweep options for this invocation,
// turning span tracing on whenever -trace-dir asks for artifacts and
// threading the -faults spec (seeded from -seed) into every cell.
func (o *options) sweepOpts(cpuCaps map[int]units.Watts) core.SweepOptions {
	return core.SweepOptions{
		Scheduler: o.scheduler,
		CPUCaps:   cpuCaps,
		Seed:      o.seed,
		Telemetry: o.telem,
		Trace:     o.traceDir != "",
		Faults:    o.faults,
	}
}

// runSweep fans rows across the worker pool, then writes the sweep's
// -trace-dir artifacts and prints its -faults summary.
func runSweep(o *options, rows []core.TableIIRow, opt core.SweepOptions) ([][]core.PlanResult, error) {
	sweeps, err := core.ParallelSweep(rows, opt, o.popt())
	if err != nil {
		return nil, err
	}
	if err := writeSweepTraces(o, rows, opt, opt.Seed, sweeps); err != nil {
		return nil, err
	}
	return sweeps, emitFaultSummary(o, rows, sweeps)
}

func schedName(o *options) string {
	if o.scheduler == "" {
		return "dmdas"
	}
	return o.scheduler
}

// runFig5 prints the per-device energy split per plan on the V100 node
// in double precision — the paper's Fig. 5.
func runFig5(o *options) error {
	rows, err := core.ExperimentRows("fig3", platform.TwoV100Name, o.scale)
	if err != nil {
		return err
	}
	opt := o.sweepOpts(nil)
	sweeps, err := runSweep(o, rows, opt)
	if err != nil {
		return err
	}
	for i, row := range rows {
		results := sweeps[i]
		tbl := report.NewTable(
			fmt.Sprintf("Fig. 5 — per-device energy, %s on %s", row.Workload(), platform.TwoV100Name),
			"plan", "CPU0_J", "CPU1_J", "GPU0_J", "GPU1_J", "total_J", "CPU share %")
		for _, r := range results {
			d := r.Result.Device
			cpu := d["CPU0"] + d["CPU1"]
			tbl.AddRow(r.Plan.String(), float64(d["CPU0"]), float64(d["CPU1"]),
				float64(d["GPU0"]), float64(d["GPU1"]), float64(r.Result.Energy),
				100*float64(cpu)/float64(r.Result.Energy))
		}
		if err := emit(o, tbl); err != nil {
			return err
		}
		fmt.Println()
	}
	return nil
}

// runFig6 compares every plan with and without the paper's CPU cap
// (socket 1 at 48 % TDP = 60 W) on the V100 node, both precisions.
func runFig6(o *options) error {
	cpuCaps := map[int]units.Watts{1: 60}
	var rows []core.TableIIRow
	for _, p := range prec.All {
		for _, op := range []core.Operation{core.GEMM, core.POTRF} {
			row, err := core.LookupTableII(platform.TwoV100Name, op, p)
			if err != nil {
				return err
			}
			rows = append(rows, core.ScaleRow(row, o.scale))
		}
	}
	// The capped and uncapped sweeps differ in options, so they fan out
	// as two pools; rows align index-for-index.  Their trace artifacts
	// cannot collide: TraceCellKey embeds the CPU-cap state.
	plainOpt, cappedOpt := o.sweepOpts(nil), o.sweepOpts(cpuCaps)
	plainSweeps, err := runSweep(o, rows, plainOpt)
	if err != nil {
		return err
	}
	cappedSweeps, err := runSweep(o, rows, cappedOpt)
	if err != nil {
		return err
	}
	for i, row := range rows {
		plain, capped := plainSweeps[i], cappedSweeps[i]
		var defaultRate float64
		for _, r := range plain {
			if r.Plan.AllHigh() {
				defaultRate = float64(r.Result.Rate)
			}
		}
		tbl := report.NewTable(
			fmt.Sprintf("Fig. 6 — CPU1 capped at 60 W, %s on %s", row.Workload(), platform.TwoV100Name),
			"plan", "eff (no CPU cap)", "eff (CPU cap)", "improvement %", "perf Δ% vs uncapped-CPU default")
		for j := range plain {
			base := plain[j].Result
			with := capped[j].Result
			tbl.AddRow(plain[j].Plan.String(), base.Efficiency, with.Efficiency,
				units.PercentChange(base.Efficiency, with.Efficiency),
				units.PercentChange(defaultRate, float64(with.Rate)))
		}
		if err := emit(o, tbl); err != nil {
			return err
		}
		fmt.Println()
	}
	return nil
}

// runFig7 prints the efficiency of every plan across the Fig. 7 tile
// sizes.  On the V100 platform one CPU is capped, as the figure notes.
func runFig7(o *options) error {
	platforms, err := core.Platforms(o.platform)
	if err != nil {
		return err
	}
	for _, plat := range platforms {
		var cpuCaps map[int]units.Watts
		if plat == platform.TwoV100Name {
			cpuCaps = map[int]units.Watts{1: 60}
		}
		// One pool per platform: every (op, precision, tile) sweep of the
		// figure fans out together, results consumed in enumeration order.
		var rows []core.TableIIRow
		for _, op := range []core.Operation{core.GEMM, core.POTRF} {
			for _, p := range prec.All {
				row, err := core.LookupTableII(plat, op, p)
				if err != nil {
					return err
				}
				for _, nb := range core.Fig7TileSizes(plat, op) {
					r := row
					r.NB = nb
					rows = append(rows, core.ScaleRow(r, o.scale))
				}
			}
		}
		opt := o.sweepOpts(cpuCaps)
		sweeps, err := runSweep(o, rows, opt)
		if err != nil {
			return err
		}
		next := 0
		for _, op := range []core.Operation{core.GEMM, core.POTRF} {
			for _, p := range prec.All {
				type cell struct {
					plan string
					eff  float64
				}
				byTile := map[int][]cell{}
				var planOrder []string
				for _, nb := range core.Fig7TileSizes(plat, op) {
					results := sweeps[next]
					next++
					planOrder = planOrder[:0]
					for _, pr := range results {
						byTile[nb] = append(byTile[nb], cell{pr.Plan.String(), pr.Result.Efficiency})
						planOrder = append(planOrder, pr.Plan.String())
					}
				}
				tiles := core.Fig7TileSizes(plat, op)
				sort.Ints(tiles)
				headers := []string{"plan"}
				for _, nb := range tiles {
					headers = append(headers, fmt.Sprintf("Nt=%d", nb))
				}
				tbl := report.NewTable(
					fmt.Sprintf("Fig. 7 — Gflop/s/W per tile size, %s%s on %s", p.BLASPrefix(), op, plat),
					headers...)
				for i, plan := range planOrder {
					cells := []interface{}{plan}
					for _, nb := range tiles {
						cells = append(cells, byTile[nb][i].eff)
					}
					tbl.AddRow(cells...)
				}
				if err := emit(o, tbl); err != nil {
					return err
				}
				fmt.Println()
			}
		}
	}
	return nil
}
