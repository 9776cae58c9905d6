package chameleon

import (
	"fmt"

	"repro/internal/prec"
	"repro/internal/starpu"
	"repro/internal/units"
)

// Mixed-precision solver — the paper's future work ("mixed precision
// computations as a complementary way to find the best trade-off
// between raw performance and energy consumption").  PosvMixed solves
// the SPD system A X = B in double precision accuracy while doing the
// O(n^3) factorisation in single precision: classical iterative
// refinement.  Single-precision kernels are both faster and more
// energy-efficient on every modelled GPU, so the energy win compounds
// with power capping.

// mixedCodelet builds the small memory-bound helper codelets (precision
// demote/promote, tile copy, accumulate).  They are cheap relative to
// the O(nb^3) kernels; their cost model is bandwidth-flavoured via a
// low efficiency factor.
func mixedCodelet(name string, p prec.Precision) *starpu.Codelet {
	return &starpu.Codelet{
		Name: name, Precision: p,
		CanCPU: true, CanCUDA: true,
		GPUEfficiency: 0.05, CPUEfficiency: 0.20,
	}
}

// PosvMixed factors a copy of aD in single precision, solves for bD's
// right-hand sides, and applies `iters` double-precision refinement
// steps.  On completion (numeric mode) bD holds X to double accuracy
// (for reasonably conditioned A).  aD is left untouched.
func PosvMixed(rt *starpu.Runtime, aD, bD *Desc[float64], iters int) error {
	if !aD.Square() || aD.N != bD.M || aD.NB != bD.NB {
		return fmt.Errorf("chameleon: posv_mixed descriptor mismatch (A %dx%d/%d, B %dx%d/%d)", aD.M, aD.N, aD.NB, bD.M, bD.N, bD.NB)
	}
	if iters < 0 {
		return fmt.Errorf("chameleon: posv_mixed negative refinement count %d", iters)
	}
	n, nb := aD.N, aD.NB
	numeric := aD.Numeric()

	aS, err := NewDesc[float32](rt, n, nb, numeric)
	if err != nil {
		return err
	}
	workS, err := NewDescRect[float32](rt, bD.M, bD.N, nb, numeric)
	if err != nil {
		return err
	}
	xD, err := NewDescRect[float64](rt, bD.M, bD.N, nb, numeric)
	if err != nil {
		return err
	}
	rD, err := NewDescRect[float64](rt, bD.M, bD.N, nb, numeric)
	if err != nil {
		return err
	}

	clDemote := mixedCodelet("dlag2s", prec.Single)
	clPromote := mixedCodelet("slag2d", prec.Double)
	clCopy := mixedCodelet("dlacpy", prec.Double)
	clAdd := mixedCodelet("sgeadd", prec.Double)
	tileWork := func(i, j int) units.Flops {
		return units.Flops(float64(bD.TileRows(i%bD.MT)) * float64(bD.TileCols(j%bD.NT)))
	}

	// forEachTile submits one elementwise task per tile of an mt x nt grid.
	forEachTile := func(mt, nt int, cl *starpu.Codelet, tag string, handles func(i, j int) ([]*starpu.Handle, []starpu.AccessMode), fn func(i, j int) func() error) error {
		for i := 0; i < mt; i++ {
			for j := 0; j < nt; j++ {
				hs, modes := handles(i, j)
				t := &starpu.Task{
					Codelet: cl, Handles: hs, Modes: modes,
					Work: tileWork(i, j),
					Tag:  taskTag(tag, i, j),
				}
				if numeric {
					t.Func = fn(i, j)
				}
				if err := rt.Submit(t); err != nil {
					return err
				}
			}
		}
		return nil
	}
	demote := func(src *Desc[float64], dst *Desc[float32], tag string) error {
		return forEachTile(src.MT, src.NT, clDemote, tag,
			func(i, j int) ([]*starpu.Handle, []starpu.AccessMode) {
				return []*starpu.Handle{src.Handle(i, j), dst.Handle(i, j)}, []starpu.AccessMode{starpu.R, starpu.W}
			},
			func(i, j int) func() error {
				return func() error {
					s, d := src.Tile(i, j), dst.Tile(i, j)
					for r := 0; r < s.Rows; r++ {
						sr, dr := s.Row(r), d.Row(r)
						for c := range sr {
							dr[c] = float32(sr[c])
						}
					}
					return nil
				}
			})
	}

	// 1. aS = float32(aD); factor it once.
	if err := demote(aD, aS, "lag2s_A"); err != nil {
		return err
	}
	if err := Potrf(rt, aS); err != nil {
		return err
	}

	// 2. Initial solve: workS = float32(bD); L-solve; xD = float64(workS).
	if err := demote(bD, workS, "lag2s_b"); err != nil {
		return err
	}
	if err := Potrs(rt, aS, workS); err != nil {
		return err
	}
	if err := forEachTile(workS.MT, workS.NT, clPromote, "slag2d_x",
		func(i, j int) ([]*starpu.Handle, []starpu.AccessMode) {
			return []*starpu.Handle{workS.Handle(i, j), xD.Handle(i, j)}, []starpu.AccessMode{starpu.R, starpu.W}
		},
		func(i, j int) func() error {
			return func() error {
				s, d := workS.Tile(i, j), xD.Tile(i, j)
				for r := 0; r < s.Rows; r++ {
					sr, dr := s.Row(r), d.Row(r)
					for c := range sr {
						dr[c] = float64(sr[c])
					}
				}
				return nil
			}
		}); err != nil {
		return err
	}

	// 3. Refinement: r = b - A x (double); correct x by the
	// single-precision solve of A d = r.
	for it := 0; it < iters; it++ {
		if err := forEachTile(bD.MT, bD.NT, clCopy, fmt.Sprintf("lacpy_r%d", it),
			func(i, j int) ([]*starpu.Handle, []starpu.AccessMode) {
				return []*starpu.Handle{bD.Handle(i, j), rD.Handle(i, j)}, []starpu.AccessMode{starpu.R, starpu.W}
			},
			func(i, j int) func() error {
				return func() error {
					s, d := bD.Tile(i, j), rD.Tile(i, j)
					for r := 0; r < s.Rows; r++ {
						copy(d.Row(r), s.Row(r))
					}
					return nil
				}
			}); err != nil {
			return err
		}
		if err := Gemm(rt, -1.0, aD, xD, 1.0, rD); err != nil {
			return err
		}
		if err := demote(rD, workS, fmt.Sprintf("lag2s_r%d", it)); err != nil {
			return err
		}
		if err := Potrs(rt, aS, workS); err != nil {
			return err
		}
		if err := forEachTile(workS.MT, workS.NT, clAdd, fmt.Sprintf("geadd_x%d", it),
			func(i, j int) ([]*starpu.Handle, []starpu.AccessMode) {
				return []*starpu.Handle{workS.Handle(i, j), xD.Handle(i, j)}, modesRRW
			},
			func(i, j int) func() error {
				return func() error {
					s, d := workS.Tile(i, j), xD.Tile(i, j)
					for r := 0; r < s.Rows; r++ {
						sr, dr := s.Row(r), d.Row(r)
						for c := range sr {
							dr[c] += float64(sr[c])
						}
					}
					return nil
				}
			}); err != nil {
			return err
		}
	}

	// 4. Deliver the solution in bD, matching Posv's contract.
	return forEachTile(xD.MT, xD.NT, clCopy, "lacpy_out",
		func(i, j int) ([]*starpu.Handle, []starpu.AccessMode) {
			return []*starpu.Handle{xD.Handle(i, j), bD.Handle(i, j)}, []starpu.AccessMode{starpu.R, starpu.W}
		},
		func(i, j int) func() error {
			return func() error {
				s, d := xD.Tile(i, j), bD.Tile(i, j)
				for r := 0; r < s.Rows; r++ {
					copy(d.Row(r), s.Row(r))
				}
				return nil
			}
		})
}
