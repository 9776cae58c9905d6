package chameleon

import (
	"fmt"

	"repro/internal/linalg"
	"repro/internal/starpu"
	"repro/internal/units"
)

// Potrf submits the right-looking tile Cholesky factorisation of the
// SPD matrix held in a (lower variant): on completion (numeric mode) the
// lower triangle of a holds L with A = L*Lᵀ.
//
// Per step k:
//
//	POTRF(k):    A[k][k] = chol(A[k][k])                      (CPU only)
//	TRSM(i,k):   A[i][k] = A[i][k] * A[k][k]⁻ᵀ        i > k
//	SYRK(i,k):   A[i][i] -= A[i][k] * A[i][k]ᵀ         i > k
//	GEMM(i,j,k): A[i][j] -= A[i][k] * A[j][k]ᵀ     i > j > k
//
// The DAG has N(N+1)(N+2)/6 vertices for an N x N tile matrix, GEMM
// tasks making up roughly half (§III-C).  Priorities implement the
// expert scheme the paper credits to Chameleon: tasks of earlier panels
// dominate, and within a panel POTRF > TRSM > SYRK > GEMM, pushing the
// critical path ahead of trailing updates.
func Potrf[T linalg.Float](rt *starpu.Runtime, a *Desc[T]) error {
	if !a.Square() {
		return fmt.Errorf("chameleon: potrf on %dx%d descriptor", a.M, a.N)
	}
	nt := a.NT
	p := PrecisionOf[T]()
	clPotrf := codeletFor(p, "potrf")
	clTrsm := codeletFor(p, "trsm")
	clSyrk := codeletFor(p, "syrk")
	clGemm := codeletFor(p, "gemm")

	prio := func(step, class int) int {
		// class: 3 potrf, 2 trsm, 1 syrk, 0 gemm.
		return ((nt - step) << 2) + class
	}

	for k := 0; k < nt; k++ {
		k := k
		tp := &starpu.Task{
			Codelet:  clPotrf,
			Handles:  []*starpu.Handle{a.Handle(k, k)},
			Modes:    modesRW,
			Work:     units.Flops(linalg.PotrfFlops(a.TileDim(k))),
			Priority: prio(k, 3),
			Tag:      taskTag("potrf", k),
		}
		if a.Numeric() {
			tp.Func = func() error { return linalg.PotrfLower(a.Tile(k, k)) }
		}
		if err := rt.Submit(tp); err != nil {
			return err
		}
		for i := k + 1; i < nt; i++ {
			i := i
			tt := &starpu.Task{
				Codelet:  clTrsm,
				Handles:  []*starpu.Handle{a.Handle(k, k), a.Handle(i, k)},
				Modes:    modesRRW,
				Work:     units.Flops(linalg.TrsmFlops(a.TileDim(i), a.TileDim(k))),
				Priority: prio(k, 2),
				Tag:      taskTag("trsm", i, k),
			}
			if a.Numeric() {
				tt.Func = func() error {
					linalg.TrsmRightLowerTransNonUnit[T](1, a.Tile(k, k), a.Tile(i, k))
					return nil
				}
			}
			if err := rt.Submit(tt); err != nil {
				return err
			}
		}
		for i := k + 1; i < nt; i++ {
			i := i
			ts := &starpu.Task{
				Codelet:  clSyrk,
				Handles:  []*starpu.Handle{a.Handle(i, k), a.Handle(i, i)},
				Modes:    modesRRW,
				Work:     units.Flops(linalg.SyrkFlops(a.TileDim(i), a.TileDim(k))),
				Priority: prio(k, 1),
				Tag:      taskTag("syrk", i, k),
			}
			if a.Numeric() {
				ts.Func = func() error {
					linalg.SyrkLowerNT[T](-1, a.Tile(i, k), 1, a.Tile(i, i))
					return nil
				}
			}
			if err := rt.Submit(ts); err != nil {
				return err
			}
			for j := k + 1; j < i; j++ {
				j := j
				tg := &starpu.Task{
					Codelet:  clGemm,
					Handles:  []*starpu.Handle{a.Handle(i, k), a.Handle(j, k), a.Handle(i, j)},
					Modes:    modesRRRW,
					Work:     units.Flops(linalg.GemmFlops(a.TileDim(i), a.TileDim(j), a.TileDim(k))),
					Priority: prio(k, 0),
					Tag:      taskTag("gemm", i, j, k),
				}
				if a.Numeric() {
					tg.Func = func() error {
						linalg.Gemm[T](linalg.NoTrans, linalg.Trans, -1, a.Tile(i, k), a.Tile(j, k), 1, a.Tile(i, j))
						return nil
					}
				}
				if err := rt.Submit(tg); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// PotrfFlops reports the total flop count of an N x N Cholesky (N^3/3).
func PotrfFlops(n int) units.Flops {
	f := float64(n)
	return units.Flops(f * f * f / 3)
}

// PotrfTaskCount reports the DAG size for an nt x nt tile matrix:
// nt(nt+1)(nt+2)/6 vertices (§III-C).
func PotrfTaskCount(nt int) int {
	return nt * (nt + 1) * (nt + 2) / 6
}
