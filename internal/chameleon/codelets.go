package chameleon

import (
	"sync"

	"repro/internal/prec"
	"repro/internal/starpu"
)

// Kernel efficiency factors relative to the device's GEMM curve.  GPU
// panel factorisation is so inefficient that Chameleon runs POTRF tiles
// on the CPU only — the paper leans on this ("the critical path comprises
// numerous tasks that are executed on the CPU").
const (
	gpuEffGemm = 1.00
	gpuEffSyrk = 0.90
	gpuEffTrsm = 0.65
	cpuEffGemm = 1.00
	cpuEffSyrk = 0.95
	cpuEffTrsm = 0.90
	cpuEffPotf = 0.80
)

// Access-mode lists shared by every task of the same shape.  The
// runtime only reads Task.Modes, so one backing array per shape serves
// the whole DAG instead of one allocation per task.
var (
	modesRW   = []starpu.AccessMode{starpu.RW}
	modesRRW  = []starpu.AccessMode{starpu.R, starpu.RW}
	modesRRRW = []starpu.AccessMode{starpu.R, starpu.R, starpu.RW}
)

var (
	codeletOnce sync.Once
	codelets    map[string]*starpu.Codelet
)

func buildCodelets() {
	codelets = make(map[string]*starpu.Codelet)
	for _, p := range prec.All {
		pre := p.BLASPrefix()
		codelets[pre+"gemm"] = &starpu.Codelet{
			Name: pre + "gemm", Precision: p,
			CanCPU: true, CanCUDA: true,
			GPUEfficiency: gpuEffGemm, CPUEfficiency: cpuEffGemm,
		}
		codelets[pre+"syrk"] = &starpu.Codelet{
			Name: pre + "syrk", Precision: p,
			CanCPU: true, CanCUDA: true,
			GPUEfficiency: gpuEffSyrk, CPUEfficiency: cpuEffSyrk,
		}
		codelets[pre+"trsm"] = &starpu.Codelet{
			Name: pre + "trsm", Precision: p,
			CanCPU: true, CanCUDA: true,
			GPUEfficiency: gpuEffTrsm, CPUEfficiency: cpuEffTrsm,
		}
		codelets[pre+"potrf"] = &starpu.Codelet{
			Name: pre + "potrf", Precision: p,
			CanCPU: true, CanCUDA: false, // LAPACK panel on the host
			CPUEfficiency: cpuEffPotf,
		}
		// Tile QR kernels: panels on the host, reflector application on
		// either side (GPUs run LARFB-style updates below GEMM rates).
		codelets[pre+"geqrt"] = &starpu.Codelet{
			Name: pre + "geqrt", Precision: p,
			CanCPU: true, CPUEfficiency: 0.70,
		}
		codelets[pre+"tsqrt"] = &starpu.Codelet{
			Name: pre + "tsqrt", Precision: p,
			CanCPU: true, CPUEfficiency: 0.75,
		}
		codelets[pre+"unmqr"] = &starpu.Codelet{
			Name: pre + "unmqr", Precision: p,
			CanCPU: true, CanCUDA: true,
			GPUEfficiency: 0.60, CPUEfficiency: 0.90,
		}
		codelets[pre+"tsmqr"] = &starpu.Codelet{
			Name: pre + "tsmqr", Precision: p,
			CanCPU: true, CanCUDA: true,
			GPUEfficiency: 0.60, CPUEfficiency: 0.90,
		}
	}
}

// Codelet returns the shared codelet for a kernel name ("dgemm",
// "spotrf", ...), or nil for unknown names.
func Codelet(name string) *starpu.Codelet {
	codeletOnce.Do(buildCodelets)
	return codelets[name]
}

// codeletFor composes the per-precision kernel name.
func codeletFor(p prec.Precision, kernel string) *starpu.Codelet {
	return Codelet(p.BLASPrefix() + kernel)
}
