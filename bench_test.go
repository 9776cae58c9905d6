// Package repro's top-level benchmarks regenerate every table and
// figure of the paper's evaluation; `go test -bench .` prints the
// headline metric of each experiment as a custom benchmark metric
// (Gflop/s/W, percent deltas), and EXPERIMENTS.md records the
// paper-vs-measured comparison.
//
// The Fig. 3/4/5/6/7 benches run the full plan sweeps on reduced matrix
// orders (identical tile sizes, so identical per-task behaviour) to keep
// the suite's wall-clock reasonable; `cmd/capbench` runs the full-size
// versions.
package repro

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dyncap"
	"repro/internal/gpu"
	"repro/internal/platform"
	"repro/internal/powercap"
	"repro/internal/prec"
	"repro/internal/units"
)

// BenchmarkFig1CapSweep regenerates the single-GPU GEMM sweeps of
// Fig. 1 (A100-SXM4, three sizes, both precisions) and reports the
// peak efficiency found.
func BenchmarkFig1CapSweep(b *testing.B) {
	arch := gpu.A100SXM4()
	var peak float64
	for i := 0; i < b.N; i++ {
		for _, p := range prec.All {
			for _, pt := range core.Fig1Sweep(arch, p, []int{1024, 2048, 5120}) {
				if pt.EffGFW > peak {
					peak = pt.EffGFW
				}
			}
		}
	}
	b.ReportMetric(peak, "peak_Gflops/W")
}

// BenchmarkTable1BestCaps regenerates Table I and reports the A100-SXM4
// double-precision optimum (paper: 54 % TDP, +28.81 %).
func BenchmarkTable1BestCaps(b *testing.B) {
	var rows []core.Table1Row
	for i := 0; i < b.N; i++ {
		rows = core.Table1()
	}
	for _, r := range rows {
		if r.Arch == gpu.A100SXM4Name && r.Precision == prec.Double {
			b.ReportMetric(r.BestCapPct, "best_cap_%TDP")
			b.ReportMetric(r.SavingPct, "eff_saving_%")
			b.ReportMetric(r.SlowdownPct, "slowdown_%")
		}
	}
}

// BenchmarkTable2PBestSearch re-derives the P_best levels of Table II by
// sweeping each platform's GPU at the workload's tile size.
func BenchmarkTable2PBestSearch(b *testing.B) {
	var frac float64
	for i := 0; i < b.N; i++ {
		for _, row := range core.TableII {
			spec, err := platform.SpecByName(row.Platform)
			if err != nil {
				b.Fatal(err)
			}
			work := units.Flops(2 * float64(row.NB) * float64(row.NB) * float64(row.NB))
			_, frac = powercap.FindBestCap(spec.GPUArch, row.Precision, work)
		}
	}
	b.ReportMetric(frac*100, "last_best_cap_%TDP")
}

// sweep runs a (possibly reduced) Table II row over all canonical plans
// and reports the BBBB-vs-default deltas — the headline of Figs. 3/4.
func sweep(b *testing.B, platName string, op core.Operation, p prec.Precision, scale int, caps map[int]units.Watts) []core.PlanResult {
	b.Helper()
	row, err := core.LookupTableII(platName, op, p)
	if err != nil {
		b.Fatal(err)
	}
	if scale > 1 {
		nt := row.N / row.NB / scale
		if nt < 4 {
			nt = 4
		}
		row.N = nt * row.NB
	}
	var results []core.PlanResult
	for i := 0; i < b.N; i++ {
		results, err = core.SweepPlans(row, core.SweepOptions{CPUCaps: caps})
		if err != nil {
			b.Fatal(err)
		}
	}
	return results
}

func reportAllB(b *testing.B, results []core.PlanResult) {
	b.Helper()
	for _, r := range results {
		if r.Plan.Count(powercap.Best) == len(r.Plan) {
			b.ReportMetric(r.Delta.PerfPct, "allB_perf_%")
			b.ReportMetric(r.Delta.EnergyPct, "allB_energy_%")
			b.ReportMetric(r.Delta.EffGainPct, "allB_eff_gain_%")
			b.ReportMetric(r.Result.Efficiency, "allB_Gflops/W")
		}
	}
}

// BenchmarkFig3aGemmDouble4xA100 — Fig. 3a (paper: BBBB ≈ +20 % eff,
// ≈ −21 % perf; LLLL ≈ −80 % perf and more energy).
func BenchmarkFig3aGemmDouble4xA100(b *testing.B) {
	reportAllB(b, sweep(b, platform.FourA100Name, core.GEMM, prec.Double, 1, nil))
}

// BenchmarkFig3bGemmDouble2xA100 — Fig. 3b (paper: default wins, BB
// within a few percent).
func BenchmarkFig3bGemmDouble2xA100(b *testing.B) {
	reportAllB(b, sweep(b, platform.TwoA100Name, core.GEMM, prec.Double, 1, nil))
}

// BenchmarkFig3cGemmDouble2xV100 — Fig. 3c.
func BenchmarkFig3cGemmDouble2xV100(b *testing.B) {
	reportAllB(b, sweep(b, platform.TwoV100Name, core.GEMM, prec.Double, 1, nil))
}

// BenchmarkFig3dPotrfDouble4xA100 — Fig. 3d (reduced order).
func BenchmarkFig3dPotrfDouble4xA100(b *testing.B) {
	reportAllB(b, sweep(b, platform.FourA100Name, core.POTRF, prec.Double, 2, nil))
}

// BenchmarkFig3ePotrfDouble2xA100 — Fig. 3e (reduced order).
func BenchmarkFig3ePotrfDouble2xA100(b *testing.B) {
	reportAllB(b, sweep(b, platform.TwoA100Name, core.POTRF, prec.Double, 2, nil))
}

// BenchmarkFig3fPotrfDouble2xV100 — Fig. 3f (reduced order).
func BenchmarkFig3fPotrfDouble2xV100(b *testing.B) {
	reportAllB(b, sweep(b, platform.TwoV100Name, core.POTRF, prec.Double, 2, nil))
}

// BenchmarkFig4aGemmSingle4xA100 — Fig. 4a (paper: BBBB +33.78 % eff).
func BenchmarkFig4aGemmSingle4xA100(b *testing.B) {
	reportAllB(b, sweep(b, platform.FourA100Name, core.GEMM, prec.Single, 1, nil))
}

// BenchmarkFig4bGemmSingle2xA100 — Fig. 4b (paper: LL and BB coincide
// at 150 W).
func BenchmarkFig4bGemmSingle2xA100(b *testing.B) {
	reportAllB(b, sweep(b, platform.TwoA100Name, core.GEMM, prec.Single, 1, nil))
}

// BenchmarkFig4cGemmSingle2xV100 — Fig. 4c (paper: BB +3.8 %).
func BenchmarkFig4cGemmSingle2xV100(b *testing.B) {
	reportAllB(b, sweep(b, platform.TwoV100Name, core.GEMM, prec.Single, 1, nil))
}

// BenchmarkFig4dPotrfSingle4xA100 — Fig. 4d (paper: BBBB ≈ −25 % energy
// at −28.6 % perf; reduced order).
func BenchmarkFig4dPotrfSingle4xA100(b *testing.B) {
	reportAllB(b, sweep(b, platform.FourA100Name, core.POTRF, prec.Single, 2, nil))
}

// BenchmarkFig4ePotrfSingle2xA100 — Fig. 4e (reduced order).
func BenchmarkFig4ePotrfSingle2xA100(b *testing.B) {
	reportAllB(b, sweep(b, platform.TwoA100Name, core.POTRF, prec.Single, 2, nil))
}

// BenchmarkFig4fPotrfSingle2xV100 — Fig. 4f (reduced order).
func BenchmarkFig4fPotrfSingle2xV100(b *testing.B) {
	reportAllB(b, sweep(b, platform.TwoV100Name, core.POTRF, prec.Single, 2, nil))
}

// BenchmarkFig5EnergySplit measures the per-device split on the V100
// node (paper: CPUs take a large, plan-dependent share; L plans shift
// Joules to the CPUs).
func BenchmarkFig5EnergySplit(b *testing.B) {
	results := sweep(b, platform.TwoV100Name, core.GEMM, prec.Double, 1, nil)
	for _, r := range results {
		cpu := r.Result.Device["CPU0"] + r.Result.Device["CPU1"]
		share := 100 * float64(cpu) / float64(r.Result.Energy)
		switch r.Plan.String() {
		case "HH":
			b.ReportMetric(share, "HH_cpu_share_%")
		case "LL":
			b.ReportMetric(share, "LL_cpu_share_%")
		}
	}
}

// BenchmarkFig6CPUCap measures the efficiency improvement from capping
// CPU1 at 48 % TDP on the V100 node (paper: +8-14 %, no perf loss).
func BenchmarkFig6CPUCap(b *testing.B) {
	row, err := core.LookupTableII(platform.TwoV100Name, core.GEMM, prec.Double)
	if err != nil {
		b.Fatal(err)
	}
	var plain, capped []core.PlanResult
	for i := 0; i < b.N; i++ {
		plain, err = core.SweepPlans(row, core.SweepOptions{})
		if err != nil {
			b.Fatal(err)
		}
		capped, err = core.SweepPlans(row, core.SweepOptions{CPUCaps: map[int]units.Watts{1: 60}})
		if err != nil {
			b.Fatal(err)
		}
	}
	for i := range plain {
		if plain[i].Plan.AllHigh() {
			gain := units.PercentChange(plain[i].Result.Efficiency, capped[i].Result.Efficiency)
			perf := units.PercentChange(float64(plain[i].Result.Rate), float64(capped[i].Result.Rate))
			b.ReportMetric(gain, "HH_eff_gain_%")
			b.ReportMetric(perf, "HH_perf_%")
		}
	}
}

// BenchmarkFig7TileSizes sweeps the alternative tilings (reduced order)
// on the 4xA100 node and reports how often the all-B plan wins, the
// figure's qualitative claim.
func BenchmarkFig7TileSizes(b *testing.B) {
	row, err := core.LookupTableII(platform.FourA100Name, core.GEMM, prec.Double)
	if err != nil {
		b.Fatal(err)
	}
	wins, cells := 0, 0
	for i := 0; i < b.N; i++ {
		wins, cells = 0, 0
		for _, nb := range core.Fig7TileSizes(platform.FourA100Name, core.GEMM) {
			r := row
			r.NB = nb
			r.N = nb * 8
			results, err := core.SweepPlans(r, core.SweepOptions{})
			if err != nil {
				b.Fatal(err)
			}
			bestPlan, bestEff := "", 0.0
			for _, pr := range results {
				if pr.Result.Efficiency > bestEff {
					bestEff, bestPlan = pr.Result.Efficiency, pr.Plan.String()
				}
			}
			cells++
			if bestPlan == "BBBB" {
				wins++
			}
		}
	}
	b.ReportMetric(float64(wins)/float64(cells)*100, "allB_wins_%")
}

// BenchmarkParallelSpeedup times the same grid — every Table II row at
// reduced order, all canonical plans — through the executor at one
// worker and at eight, verifies the outputs match, and reports the
// speedup.  The speedup is bounded by the host's cores: on a multi-core
// host the grid's ~100 independent cells keep eight workers busy, while
// a single-core CI runner reports ~1×.
func BenchmarkParallelSpeedup(b *testing.B) {
	rows := make([]core.TableIIRow, len(core.TableII))
	for i, r := range core.TableII {
		r.N = r.NB * 3
		rows[i] = r
	}
	opt := core.SweepOptions{Seed: 1}
	var serial, parallel time.Duration
	cells := 0
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		sres, err := core.ParallelSweep(rows, opt, core.ParallelOptions{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		serial = time.Since(t0)
		t0 = time.Now()
		pres, err := core.ParallelSweep(rows, opt, core.ParallelOptions{Workers: 8})
		if err != nil {
			b.Fatal(err)
		}
		parallel = time.Since(t0)
		cells = 0
		for j := range sres {
			cells += len(sres[j])
			for k := range sres[j] {
				if sres[j][k].Result.Efficiency != pres[j][k].Result.Efficiency {
					b.Fatalf("row %d plan %s: serial and parallel efficiencies differ", j, sres[j][k].Plan)
				}
			}
		}
	}
	speedup := serial.Seconds() / parallel.Seconds()
	b.ReportMetric(speedup, "speedup_x")
	b.ReportMetric(float64(cells), "cells")
}

// BenchmarkAblationSchedulers compares dmdas against the baseline
// policies under the unbalanced HHBB plan.
func BenchmarkAblationSchedulers(b *testing.B) {
	row, err := core.LookupTableII(platform.FourA100Name, core.GEMM, prec.Double)
	if err != nil {
		b.Fatal(err)
	}
	row.N = row.NB * 8
	spec, _ := platform.SpecByName(row.Platform)
	for _, sched := range []string{"eager", "random", "ws", "dm", "dmda", "dmdas"} {
		sched := sched
		b.Run(sched, func(b *testing.B) {
			var res *core.Result
			for i := 0; i < b.N; i++ {
				res, err = core.Run(core.Config{
					Spec: spec, Workload: row.Workload(),
					Plan:     powercap.MustParsePlan("HHBB"),
					BestFrac: row.BestFrac, Scheduler: sched,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Rate)/units.Giga, "Gflop/s")
			b.ReportMetric(res.Efficiency, "Gflops/W")
		})
	}
}

// BenchmarkAblationCalibration quantifies the paper's recalibration
// protocol: cold models vs recalibrated models under HHBB.
func BenchmarkAblationCalibration(b *testing.B) {
	row, err := core.LookupTableII(platform.FourA100Name, core.GEMM, prec.Double)
	if err != nil {
		b.Fatal(err)
	}
	row.N = row.NB * 8
	spec, _ := platform.SpecByName(row.Platform)
	for _, skip := range []bool{false, true} {
		name := "recalibrated"
		if skip {
			name = "cold"
		}
		skip := skip
		b.Run(name, func(b *testing.B) {
			var res *core.Result
			for i := 0; i < b.N; i++ {
				res, err = core.Run(core.Config{
					Spec: spec, Workload: row.Workload(),
					Plan:     powercap.MustParsePlan("HHBB"),
					BestFrac: row.BestFrac, SkipCalibration: skip,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Rate)/units.Giga, "Gflop/s")
		})
	}
}

// BenchmarkAutoPlan measures the extension's plan search (budget 15 %).
func BenchmarkAutoPlan(b *testing.B) {
	row, err := core.LookupTableII(platform.FourA100Name, core.GEMM, prec.Double)
	if err != nil {
		b.Fatal(err)
	}
	row.N = row.NB * 8
	var res *core.AutoPlanResult
	for i := 0; i < b.N; i++ {
		res, err = core.AutoPlan(row, 15, core.SweepOptions{})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Chosen.Delta.EffGainPct, "chosen_eff_gain_%")
	b.ReportMetric(-res.Chosen.Delta.PerfPct, "chosen_slowdown_%")
}

// BenchmarkBudgetAllocation measures the node-level budget solver
// (extension) and reports the efficiency-optimal budget it finds.
func BenchmarkBudgetAllocation(b *testing.B) {
	arch := gpu.A100SXM4()
	var pts []powercap.BudgetPoint
	var err error
	for i := 0; i < b.N; i++ {
		pts, err = powercap.BudgetSweep(arch, 4, prec.Double, 3.8e11, 25)
		if err != nil {
			b.Fatal(err)
		}
	}
	best := pts[0]
	for _, p := range pts {
		if p.EffGFW > best.EffGFW {
			best = p
		}
	}
	b.ReportMetric(float64(best.Budget), "best_budget_W")
	b.ReportMetric(best.EffGFW, "best_Gflops/W")
}

// BenchmarkDynamicCap measures the online controller experiment
// (extension) against the static default.
func BenchmarkDynamicCap(b *testing.B) {
	row, err := core.LookupTableII(platform.FourA100Name, core.GEMM, prec.Double)
	if err != nil {
		b.Fatal(err)
	}
	row.N = row.NB * 12
	var gain float64
	for i := 0; i < b.N; i++ {
		base, err := core.Run(core.Config{
			Spec: platform.FourA100Spec(), Workload: row.Workload(), BestFrac: row.BestFrac,
		})
		if err != nil {
			b.Fatal(err)
		}
		dyn, _, err := core.RunDynamic(core.Config{
			Spec: platform.FourA100Spec(), Workload: row.Workload(), BestFrac: row.BestFrac,
		}, dyncap.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		gain = core.Compare(base, dyn).EffGainPct
	}
	b.ReportMetric(gain, "eff_gain_%")
}
