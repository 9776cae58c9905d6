package chameleon

import (
	"fmt"

	"repro/internal/linalg"
	"repro/internal/starpu"
	"repro/internal/units"
)

// Getrf submits the tiled LU factorisation without pivoting (Chameleon's
// dgetrf_nopiv): on completion (numeric mode) a holds the packed L\U
// factors.  Only diagonally dominant matrices are safe, the standard
// restriction of the tile algorithm.
//
// Per step k:
//
//	GETRF(k):     A[k][k] = L\U                              (CPU only)
//	TRSM-R(i,k):  A[i][k] = A[i][k] * U[k][k]⁻¹       i > k
//	TRSM-L(k,j):  A[k][j] = L[k][k]⁻¹ * A[k][j]       j > k
//	GEMM(i,j,k):  A[i][j] -= A[i][k] * A[k][j]     i,j > k
func Getrf[T linalg.Float](rt *starpu.Runtime, a *Desc[T]) error {
	if !a.Square() {
		return fmt.Errorf("chameleon: getrf on %dx%d descriptor", a.M, a.N)
	}
	nt := a.NT
	p := PrecisionOf[T]()
	clGetrf := codeletFor(p, "getrf")
	clTrsm := codeletFor(p, "trsm")
	clGemm := codeletFor(p, "gemm")

	prio := func(step, class int) int { return ((nt - step) << 2) + class }

	for k := 0; k < nt; k++ {
		k := k
		tf := &starpu.Task{
			Codelet:  clGetrf,
			Handles:  []*starpu.Handle{a.Handle(k, k)},
			Modes:    modesRW,
			Work:     units.Flops(linalg.GetrfFlops(a.TileDim(k))),
			Priority: prio(k, 3),
			Tag:      taskTag("getrf", k),
		}
		if a.Numeric() {
			tf.Func = func() error { return linalg.GetrfNoPiv(a.Tile(k, k)) }
		}
		if err := rt.Submit(tf); err != nil {
			return err
		}
		for i := k + 1; i < nt; i++ {
			i := i
			tr := &starpu.Task{
				Codelet:  clTrsm,
				Handles:  []*starpu.Handle{a.Handle(k, k), a.Handle(i, k)},
				Modes:    modesRRW,
				Work:     units.Flops(linalg.TrsmFlops(a.TileDim(i), a.TileDim(k))),
				Priority: prio(k, 2),
				Tag:      taskTag("trsmR", i, k),
			}
			if a.Numeric() {
				tr.Func = func() error {
					linalg.TrsmRightUpperNonUnit[T](1, a.Tile(k, k), a.Tile(i, k))
					return nil
				}
			}
			if err := rt.Submit(tr); err != nil {
				return err
			}
		}
		for j := k + 1; j < nt; j++ {
			j := j
			tl := &starpu.Task{
				Codelet:  clTrsm,
				Handles:  []*starpu.Handle{a.Handle(k, k), a.Handle(k, j)},
				Modes:    modesRRW,
				Work:     units.Flops(linalg.TrsmFlops(a.TileDim(j), a.TileDim(k))),
				Priority: prio(k, 2),
				Tag:      taskTag("trsmL", k, j),
			}
			if a.Numeric() {
				tl.Func = func() error {
					linalg.TrsmLeftLowerUnit[T](1, a.Tile(k, k), a.Tile(k, j))
					return nil
				}
			}
			if err := rt.Submit(tl); err != nil {
				return err
			}
		}
		for i := k + 1; i < nt; i++ {
			for j := k + 1; j < nt; j++ {
				i, j := i, j
				tg := &starpu.Task{
					Codelet:  clGemm,
					Handles:  []*starpu.Handle{a.Handle(i, k), a.Handle(k, j), a.Handle(i, j)},
					Modes:    modesRRRW,
					Work:     units.Flops(linalg.GemmFlops(a.TileDim(i), a.TileDim(j), a.TileDim(k))),
					Priority: prio(k, 0),
					Tag:      taskTag("gemm", i, j, k),
				}
				if a.Numeric() {
					tg.Func = func() error {
						linalg.Gemm[T](linalg.NoTrans, linalg.NoTrans, -1, a.Tile(i, k), a.Tile(k, j), 1, a.Tile(i, j))
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

// GetrfFlops reports the total flop count of an N x N LU (2N^3/3).
func GetrfFlops(n int) units.Flops {
	f := float64(n)
	return units.Flops(2 * f * f * f / 3)
}
