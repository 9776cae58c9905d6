package platform

import (
	"math/rand"
	"testing"

	"repro/internal/chameleon"
	"repro/internal/prec"
	"repro/internal/starpu"
	"repro/internal/units"
)

// TestPowerDomainContract checks the starpu.DomainModel contract the
// grouped dm-family Push relies on: after random GPU cap writes, CPU cap
// writes, throttle windows and dropouts, every two workers in one power
// domain agree on kind, memory node, class string, and — for every
// Chameleon codelet — CanRun and ExecPower.  Each GPU is a domain of its
// own, and each socket's CPU workers share one.
func TestPowerDomainContract(t *testing.T) {
	var codelets []*starpu.Codelet
	for _, p := range prec.All {
		for _, k := range []string{"gemm", "syrk", "trsm", "potrf", "getrf", "geqrt", "tsqrt", "unmqr", "tsmqr"} {
			if c := chameleon.Codelet(p.BLASPrefix() + k); c != nil {
				codelets = append(codelets, c)
			}
		}
	}
	if len(codelets) < 18 {
		t.Fatalf("found %d chameleon codelets, want 18", len(codelets))
	}
	for _, spec := range AllSpecs() {
		p, err := New(spec)
		if err != nil {
			t.Fatal(err)
		}
		if want := spec.GPUCount + spec.Sockets; domainCount(p) != want {
			t.Fatalf("%s: %d domains, want %d (one per GPU and per socket)", spec.Name, domainCount(p), want)
		}
		rng := rand.New(rand.NewSource(int64(spec.GPUCount)))
		a := spec.GPUArch
		for step := 0; step < 200; step++ {
			g := rng.Intn(spec.GPUCount)
			switch rng.Intn(6) {
			case 0:
				for i := 0; i < spec.GPUCount; i++ {
					cap := []units.Watts{0, a.MinPower, (a.MinPower + a.TDP) / 2, a.TDP}[rng.Intn(4)]
					if err := p.applyGPUCap(i, cap); err != nil && p.GPUAlive(i) {
						t.Fatal(err)
					}
				}
			case 1:
				cap := units.Watts([]float64{0, 0.6, 0.8}[rng.Intn(3)]) * spec.CPUArch.TDP
				if err := p.SetCPUCap(rng.Intn(spec.Sockets), cap); err != nil {
					t.Fatal(err)
				}
			case 2:
				p.ThrottleGPU(g, a.MinPower*units.Watts(1+0.2*rng.Float64()))
			case 3:
				p.ClearGPUThrottle(g)
			case 4:
				if rng.Intn(8) == 0 {
					p.KillGPU(g)
				}
			default:
				p.ClassIgnoresCap = rng.Intn(4) == 0
			}
			checkDomains(t, p, codelets, step)
		}
	}
}

func domainCount(p *Platform) int {
	seen := map[int]bool{}
	for i := 0; i < p.NumWorkers(); i++ {
		seen[p.Domain(i)] = true
	}
	return len(seen)
}

// checkDomains compares every worker with the first worker of its
// domain.
func checkDomains(t *testing.T, p *Platform, codelets []*starpu.Codelet, step int) {
	t.Helper()
	first := map[int]int{}
	for i := 0; i < p.NumWorkers(); i++ {
		d := p.Domain(i)
		j, ok := first[d]
		if !ok {
			first[d] = i
			continue
		}
		wi, wj := p.Worker(i), p.Worker(j)
		if wi.Kind != wj.Kind || wi.Node != wj.Node {
			t.Fatalf("%s step %d: domain %d holds %+v and %+v", p.Name, step, d, wj, wi)
		}
		if ci, cj := p.WorkerClass(i), p.WorkerClass(j); ci != cj {
			t.Fatalf("%s step %d: domain %d classes %q and %q", p.Name, step, d, cj, ci)
		}
		for _, c := range codelets {
			if p.CanRun(i, c) != p.CanRun(j, c) {
				t.Fatalf("%s step %d: domain %d disagrees on CanRun(%s)", p.Name, step, d, c.Name)
			}
			task := &starpu.Task{Codelet: c, Work: 1.5e9}
			if ei, ej := p.ExecPower(i, task), p.ExecPower(j, task); ei != ej {
				t.Fatalf("%s step %d: domain %d ExecPower(%s) %v and %v", p.Name, step, d, c.Name, ej, ei)
			}
		}
	}
}
