package chameleon

import (
	"fmt"

	"repro/internal/linalg"
	"repro/internal/starpu"
	"repro/internal/units"
)

// Gemm submits the tiled matrix multiplication C = alpha*A*B + beta*C
// for A (M x K), B (K x N), C (M x N).  The DAG has MT*NT*KT gemm
// tasks; the k-loop on each C tile serialises through the tile's RW
// dependency, while (i,j) pairs are independent — the wide, uniform DAG
// the paper describes ("numerous identical compute-intensive tasks and
// a high level of parallelism").
//
// Priorities descend with k so every C tile's chain advances, keeping
// all chains roughly in phase (Chameleon's default for GEMM).
func Gemm[T linalg.Float](rt *starpu.Runtime, alpha T, a, b *Desc[T], beta T, c *Desc[T]) error {
	if a.M != c.M || b.N != c.N || a.N != b.M || a.NB != b.NB || a.NB != c.NB {
		return fmt.Errorf("chameleon: gemm shape mismatch (A %dx%d/%d, B %dx%d/%d, C %dx%d/%d)",
			a.M, a.N, a.NB, b.M, b.N, b.NB, c.M, c.N, c.NB)
	}
	kt := a.NT
	cl := codeletFor(PrecisionOf[T](), "gemm")
	for i := 0; i < c.MT; i++ {
		for j := 0; j < c.NT; j++ {
			for k := 0; k < kt; k++ {
				i, j, k := i, j, k
				t := &starpu.Task{
					Codelet: cl,
					Handles: []*starpu.Handle{a.Handle(i, k), b.Handle(k, j), c.Handle(i, j)},
					Modes:   modesRRRW,
					Work:    units.Flops(linalg.GemmFlops(c.TileRows(i), c.TileCols(j), a.TileCols(k))),
					// Chains progress together: earlier k first.
					Priority: kt - k,
					Tag:      taskTag("gemm", i, j, k),
				}
				if c.Numeric() {
					beta := beta
					t.Func = func() error {
						bk := beta
						if k > 0 {
							bk = 1
						}
						linalg.Gemm(linalg.NoTrans, linalg.NoTrans, alpha, a.Tile(i, k), b.Tile(k, j), bk, c.Tile(i, j))
						return nil
					}
				}
				if err := rt.Submit(t); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// GemmFlops reports the total flop count of an N x N tiled GEMM.
func GemmFlops(n int) units.Flops {
	f := float64(n)
	return units.Flops(2 * f * f * f)
}
