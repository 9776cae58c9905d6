package chameleon

import (
	"fmt"

	"repro/internal/linalg"
	"repro/internal/starpu"
	"repro/internal/units"
)

// Potrs submits the triangular solves applying a tile Cholesky factor
// to a block of right-hand sides: given L from Potrf(a) and B, it
// overwrites B with A⁻¹B by solving L Y = B then Lᵀ X = Y.
func Potrs[T linalg.Float](rt *starpu.Runtime, l, b *Desc[T]) error {
	if !l.Square() || l.N != b.M || l.NB != b.NB {
		return fmt.Errorf("chameleon: potrs descriptor mismatch (L %dx%d/%d, B %dx%d/%d)", l.M, l.N, l.NB, b.M, b.N, b.NB)
	}
	nt := l.NT
	p := PrecisionOf[T]()
	clTrsm := codeletFor(p, "trsm")
	clGemm := codeletFor(p, "gemm")

	// Forward sweep: L Y = B.
	for k := 0; k < nt; k++ {
		k := k
		for j := 0; j < b.NT; j++ {
			k, j := k, j
			ts := &starpu.Task{
				Codelet:  clTrsm,
				Handles:  []*starpu.Handle{l.Handle(k, k), b.Handle(k, j)},
				Modes:    modesRRW,
				Work:     units.Flops(linalg.TrsmFlops(b.TileCols(j), l.TileDim(k))),
				Priority: 2 * (nt - k),
				Tag:      taskTag("fwd-trsm", k, j),
			}
			if b.Numeric() {
				ts.Func = func() error {
					linalg.TrsmLeftLowerNonUnit[T](1, l.Tile(k, k), b.Tile(k, j))
					return nil
				}
			}
			if err := rt.Submit(ts); err != nil {
				return err
			}
		}
		for i := k + 1; i < nt; i++ {
			for j := 0; j < b.NT; j++ {
				i, j := i, j
				tg := &starpu.Task{
					Codelet:  clGemm,
					Handles:  []*starpu.Handle{l.Handle(i, k), b.Handle(k, j), b.Handle(i, j)},
					Modes:    modesRRRW,
					Work:     units.Flops(linalg.GemmFlops(b.TileRows(i), b.TileCols(j), l.TileDim(k))),
					Priority: 2*(nt-k) - 1,
					Tag:      taskTag("fwd-gemm", i, j, k),
				}
				if b.Numeric() {
					tg.Func = func() error {
						linalg.Gemm[T](linalg.NoTrans, linalg.NoTrans, -1, l.Tile(i, k), b.Tile(k, j), 1, b.Tile(i, j))
						return nil
					}
				}
				if err := rt.Submit(tg); err != nil {
					return err
				}
			}
		}
	}

	// Backward sweep: Lᵀ X = Y.
	for k := nt - 1; k >= 0; k-- {
		k := k
		for j := 0; j < b.NT; j++ {
			k, j := k, j
			ts := &starpu.Task{
				Codelet:  clTrsm,
				Handles:  []*starpu.Handle{l.Handle(k, k), b.Handle(k, j)},
				Modes:    modesRRW,
				Work:     units.Flops(linalg.TrsmFlops(b.TileCols(j), l.TileDim(k))),
				Priority: 2 * (k + 1),
				Tag:      taskTag("bwd-trsm", k, j),
			}
			if b.Numeric() {
				ts.Func = func() error {
					linalg.TrsmLeftLowerTransNonUnit[T](1, l.Tile(k, k), b.Tile(k, j))
					return nil
				}
			}
			if err := rt.Submit(ts); err != nil {
				return err
			}
		}
		for i := 0; i < k; i++ {
			for j := 0; j < b.NT; j++ {
				i, j := i, j
				// X_i -= L(k,i)ᵀ X_k  (L stores the factor column-wise).
				tg := &starpu.Task{
					Codelet:  clGemm,
					Handles:  []*starpu.Handle{l.Handle(k, i), b.Handle(k, j), b.Handle(i, j)},
					Modes:    modesRRRW,
					Work:     units.Flops(linalg.GemmFlops(b.TileRows(i), b.TileCols(j), l.TileDim(k))),
					Priority: 2*(k+1) - 1,
					Tag:      taskTag("bwd-gemm", i, j, k),
				}
				if b.Numeric() {
					tg.Func = func() error {
						linalg.Gemm[T](linalg.Trans, linalg.NoTrans, -1, l.Tile(k, i), b.Tile(k, j), 1, b.Tile(i, j))
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

// Posv factors an SPD matrix in place and solves A X = B: Potrf followed
// by Potrs, the one-call driver the paper's intro motivates ("symmetric,
// positive definite systems of linear equations").
func Posv[T linalg.Float](rt *starpu.Runtime, a, b *Desc[T]) error {
	if err := Potrf(rt, a); err != nil {
		return err
	}
	return Potrs(rt, a, b)
}
