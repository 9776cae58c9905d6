package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/platform"
	"repro/internal/powercap"
	"repro/internal/prec"
	"repro/internal/report"
)

// runFig1 prints the single-GPU GEMM cap sweep: efficiency, performance
// and per-kernel energy against the cap, per matrix size and precision,
// on the A100-SXM4 (the architecture Fig. 1 shows).
func runFig1(o *options) error {
	arch := gpu.A100SXM4()
	sizes := []int{1024, 2048, 5120}
	for _, p := range prec.All {
		tbl := report.NewTable(
			fmt.Sprintf("Fig. 1 — cuBLAS %sgemm under power capping on %s (cap swept %v..%v in 2%% steps)",
				p.BLASPrefix(), arch.Name, arch.MinPower, arch.TDP),
			"size", "cap_W", "cap_%TDP", "Gflop/s", "power_W", "energy_J", "Gflop/s/W")
		for _, pt := range core.Fig1Sweep(arch, p, sizes) {
			tbl.AddRow(pt.Size, float64(pt.CapW), pt.CapFrac*100, pt.GFlops,
				float64(pt.PowerW), float64(pt.EnergyJ), pt.EffGFW)
		}
		if err := emit(o, tbl); err != nil {
			return err
		}
		// Highlight the optimum per size, the quantity Table I collects.
		best := map[int]core.Fig1Point{}
		for _, pt := range core.Fig1Sweep(arch, p, sizes) {
			if b, ok := best[pt.Size]; !ok || pt.EffGFW > b.EffGFW {
				best[pt.Size] = pt
			}
		}
		for _, n := range sizes {
			b := best[n]
			fmt.Printf("  best %s n=%d: cap %.0f W (%.0f%% TDP) -> %.1f Gflop/s/W\n",
				p, n, float64(b.CapW), b.CapFrac*100, b.EffGFW)
		}
		fmt.Println()
	}
	return nil
}

// runTable1 prints the recomputed Table I.
func runTable1(o *options) error {
	tbl := report.NewTable("Table I — best configuration for energy efficiency per GPU and precision",
		"GPU", "precision", "matrix size", "best cap (%TDP)", "eff. saving (%)", "slowdown (%)")
	for _, r := range core.Table1() {
		tbl.AddRow(r.Arch, r.Precision.String(), r.Size, r.BestCapPct, r.SavingPct, r.SlowdownPct)
	}
	return emit(o, tbl)
}

// runTable2 prints the experiment configurations with resolved P levels.
func runTable2(o *options) error {
	tbl := report.NewTable("Table II — matrix/tile sizes and GPU power levels per platform and operation",
		"platform", "operation", "N", "Nt", "precision", "P_best (%TDP)", "P_best (W)", "P_min (W)", "P_max (W)")
	for _, r := range core.TableII {
		spec, err := platform.SpecByName(r.Platform)
		if err != nil {
			return err
		}
		arch := spec.GPUArch
		caps := powercap.MustParsePlan("B").Caps(arch, r.BestFrac)
		tbl.AddRow(r.Platform, r.Op.String(), r.N, r.NB, r.Precision.String(),
			r.BestFrac*100, float64(caps[0]), float64(arch.MinPower), float64(arch.TDP))
	}
	return emit(o, tbl)
}

func emit(o *options, tbl *report.Table) error {
	if o.outDir != "" {
		if err := writeCSVFile(o.outDir, tbl); err != nil {
			return err
		}
	}
	if o.csv {
		return tbl.WriteCSV(os.Stdout)
	}
	return tbl.Write(os.Stdout)
}

// writeCSVFile stores the table under a slug derived from its title.
func writeCSVFile(dir string, tbl *report.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	slug := make([]rune, 0, 64)
	for _, r := range strings.ToLower(tbl.Title()) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			slug = append(slug, r)
		case r == ' ' || r == '-' || r == '/' || r == '.':
			if len(slug) > 0 && slug[len(slug)-1] != '_' {
				slug = append(slug, '_')
			}
		}
		if len(slug) >= 64 {
			break
		}
	}
	name := strings.Trim(string(slug), "_")
	if name == "" {
		name = "table"
	}
	f, err := os.Create(filepath.Join(dir, name+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	return tbl.WriteCSV(f)
}
