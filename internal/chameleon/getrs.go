package chameleon

import (
	"fmt"

	"repro/internal/linalg"
	"repro/internal/starpu"
	"repro/internal/units"
)

// Getrs applies the packed L\U factors from Getrf to a block of
// right-hand sides: B := A⁻¹B via the unit-lower forward sweep then the
// upper backward sweep.
func Getrs[T linalg.Float](rt *starpu.Runtime, lu, b *Desc[T]) error {
	if !lu.Square() || lu.N != b.M || lu.NB != b.NB {
		return fmt.Errorf("chameleon: getrs descriptor mismatch (LU %dx%d/%d, B %dx%d/%d)", lu.M, lu.N, lu.NB, b.M, b.N, b.NB)
	}
	nt := lu.NT
	p := PrecisionOf[T]()
	clTrsm := codeletFor(p, "trsm")
	clGemm := codeletFor(p, "gemm")

	// Forward: L Y = B with unit-diagonal L.
	for k := 0; k < nt; k++ {
		for j := 0; j < b.NT; j++ {
			k, j := k, j
			ts := &starpu.Task{
				Codelet:  clTrsm,
				Handles:  []*starpu.Handle{lu.Handle(k, k), b.Handle(k, j)},
				Modes:    modesRRW,
				Work:     units.Flops(linalg.TrsmFlops(b.TileCols(j), lu.TileDim(k))),
				Priority: 2 * (nt - k),
				Tag:      taskTag("lu-fwd-trsm", k, j),
			}
			if b.Numeric() {
				ts.Func = func() error {
					linalg.TrsmLeftLowerUnit[T](1, lu.Tile(k, k), b.Tile(k, j))
					return nil
				}
			}
			if err := rt.Submit(ts); err != nil {
				return err
			}
		}
		for i := k + 1; i < nt; i++ {
			for j := 0; j < b.NT; j++ {
				i, j, k := i, j, k
				tg := &starpu.Task{
					Codelet:  clGemm,
					Handles:  []*starpu.Handle{lu.Handle(i, k), b.Handle(k, j), b.Handle(i, j)},
					Modes:    modesRRRW,
					Work:     units.Flops(linalg.GemmFlops(b.TileRows(i), b.TileCols(j), lu.TileDim(k))),
					Priority: 2*(nt-k) - 1,
					Tag:      taskTag("lu-fwd-gemm", i, j, k),
				}
				if b.Numeric() {
					tg.Func = func() error {
						linalg.Gemm[T](linalg.NoTrans, linalg.NoTrans, -1, lu.Tile(i, k), b.Tile(k, j), 1, b.Tile(i, j))
						return nil
					}
				}
				if err := rt.Submit(tg); err != nil {
					return err
				}
			}
		}
	}

	// Backward: U X = Y.
	for k := nt - 1; k >= 0; k-- {
		for j := 0; j < b.NT; j++ {
			k, j := k, j
			ts := &starpu.Task{
				Codelet:  clTrsm,
				Handles:  []*starpu.Handle{lu.Handle(k, k), b.Handle(k, j)},
				Modes:    modesRRW,
				Work:     units.Flops(linalg.TrsmFlops(b.TileCols(j), lu.TileDim(k))),
				Priority: 2 * (k + 1),
				Tag:      taskTag("lu-bwd-trsm", k, j),
			}
			if b.Numeric() {
				ts.Func = func() error {
					linalg.TrsmLeftUpperNonUnit[T](1, lu.Tile(k, k), b.Tile(k, j))
					return nil
				}
			}
			if err := rt.Submit(ts); err != nil {
				return err
			}
		}
		for i := 0; i < k; i++ {
			for j := 0; j < b.NT; j++ {
				i, j, k := i, j, k
				tg := &starpu.Task{
					Codelet:  clGemm,
					Handles:  []*starpu.Handle{lu.Handle(i, k), b.Handle(k, j), b.Handle(i, j)},
					Modes:    modesRRRW,
					Work:     units.Flops(linalg.GemmFlops(b.TileRows(i), b.TileCols(j), lu.TileDim(k))),
					Priority: 2*(k+1) - 1,
					Tag:      taskTag("lu-bwd-gemm", i, j, k),
				}
				if b.Numeric() {
					tg.Func = func() error {
						linalg.Gemm[T](linalg.NoTrans, linalg.NoTrans, -1, lu.Tile(i, k), b.Tile(k, j), 1, b.Tile(i, j))
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

// Gesv factors (unpivoted) and solves A X = B in one call.
func Gesv[T linalg.Float](rt *starpu.Runtime, a, b *Desc[T]) error {
	if err := Getrf(rt, a); err != nil {
		return err
	}
	return Getrs(rt, a, b)
}
