package chameleon

import (
	"fmt"

	"repro/internal/linalg"
	"repro/internal/starpu"
	"repro/internal/units"
)

// Geqrf submits the tile QR factorisation (flat reduction tree, the
// Chameleon default): on completion (numeric mode) the upper triangle
// of a holds R and the lower tiles hold the Householder vectors; the
// returned workspace holds the tau factors.
//
// Per step k:
//
//	GEQRT(k):     QR of A[k][k]                              (CPU only)
//	UNMQR(k,j):   A[k][j] = Q_kᵀ A[k][j]              j > k
//	TSQRT(i,k):   QR of [R_kk; A[i][k]]               i > k  (CPU only)
//	TSMQR(i,j):   [A[k][j]; A[i][j]] = Q_ikᵀ [...]   i,j > k
//
// The TSQRT chain reads-writes A[k][k], serialising the panel exactly
// as the flat-tree algorithm requires.
func Geqrf[T linalg.Float](rt *starpu.Runtime, a *Desc[T]) (*QRWork[T], error) {
	if !a.Square() {
		return nil, fmt.Errorf("chameleon: geqrf on %dx%d descriptor", a.M, a.N)
	}
	if a.N%a.NB != 0 {
		return nil, fmt.Errorf("chameleon: geqrf requires NB (%d) to divide N (%d)", a.NB, a.N)
	}
	nt := a.NT
	nb := a.NB
	p := PrecisionOf[T]()
	clGeqrt := codeletFor(p, "geqrt")
	clUnmqr := codeletFor(p, "unmqr")
	clTsqrt := codeletFor(p, "tsqrt")
	clTsmqr := codeletFor(p, "tsmqr")

	w := newQRWork[T](rt, a)
	prio := func(step, class int) int { return ((nt - step) << 2) + class }

	for k := 0; k < nt; k++ {
		k := k
		tg := &starpu.Task{
			Codelet:  clGeqrt,
			Handles:  []*starpu.Handle{a.Handle(k, k), w.panelTau[k].handle},
			Modes:    []starpu.AccessMode{starpu.RW, starpu.W},
			Work:     units.Flops(linalg.GeqrtFlops(nb)),
			Priority: prio(k, 3),
			Tag:      taskTag("geqrt", k),
		}
		if a.Numeric() {
			tg.Func = func() error {
				linalg.Geqr2(a.Tile(k, k), w.panelTau[k].tau)
				return nil
			}
		}
		if err := rt.Submit(tg); err != nil {
			return nil, err
		}
		for j := k + 1; j < nt; j++ {
			j := j
			tu := &starpu.Task{
				Codelet:  clUnmqr,
				Handles:  []*starpu.Handle{a.Handle(k, k), w.panelTau[k].handle, a.Handle(k, j)},
				Modes:    modesRRRW,
				Work:     units.Flops(linalg.UnmqrFlops(nb)),
				Priority: prio(k, 2),
				Tag:      taskTag("unmqr", k, j),
			}
			if a.Numeric() {
				tu.Func = func() error {
					linalg.Orm2rLeftTrans(a.Tile(k, k), w.panelTau[k].tau, a.Tile(k, j))
					return nil
				}
			}
			if err := rt.Submit(tu); err != nil {
				return nil, err
			}
		}
		for i := k + 1; i < nt; i++ {
			i := i
			ts := &starpu.Task{
				Codelet:  clTsqrt,
				Handles:  []*starpu.Handle{a.Handle(k, k), a.Handle(i, k), w.tsTau[i][k].handle},
				Modes:    []starpu.AccessMode{starpu.RW, starpu.RW, starpu.W},
				Work:     units.Flops(linalg.TsqrtFlops(nb)),
				Priority: prio(k, 2),
				Tag:      taskTag("tsqrt", i, k),
			}
			if a.Numeric() {
				ts.Func = func() error {
					linalg.Tsqrt(a.Tile(k, k), a.Tile(i, k), w.tsTau[i][k].tau)
					return nil
				}
			}
			if err := rt.Submit(ts); err != nil {
				return nil, err
			}
			for j := k + 1; j < nt; j++ {
				j := j
				tm := &starpu.Task{
					Codelet: clTsmqr,
					Handles: []*starpu.Handle{
						a.Handle(i, k), w.tsTau[i][k].handle,
						a.Handle(k, j), a.Handle(i, j),
					},
					Modes:    []starpu.AccessMode{starpu.R, starpu.R, starpu.RW, starpu.RW},
					Work:     units.Flops(linalg.TsmqrFlops(nb)),
					Priority: prio(k, 1),
					Tag:      taskTag("tsmqr", i, j, k),
				}
				if a.Numeric() {
					tm.Func = func() error {
						linalg.Tsmqr(a.Tile(i, k), w.tsTau[i][k].tau, a.Tile(k, j), a.Tile(i, j))
						return nil
					}
				}
				if err := rt.Submit(tm); err != nil {
					return nil, err
				}
			}
		}
	}
	return w, nil
}

// QRWork holds the tau factors of a tile QR factorisation.
type QRWork[T linalg.Float] struct {
	panelTau []tauStore[T]   // per diagonal step k
	tsTau    [][]tauStore[T] // per (i, k), i > k
}

type tauStore[T linalg.Float] struct {
	handle *starpu.Handle
	tau    []T
}

func newQRWork[T linalg.Float](rt *starpu.Runtime, a *Desc[T]) *QRWork[T] {
	nt, nb := a.NT, a.NB
	elem := PrecisionOf[T]().Bytes()
	w := &QRWork[T]{
		panelTau: make([]tauStore[T], nt),
		tsTau:    make([][]tauStore[T], nt),
	}
	mk := func() tauStore[T] {
		var tau []T
		var data interface{}
		if a.Numeric() {
			tau = make([]T, nb)
			data = tau
		}
		return tauStore[T]{handle: rt.Register(data, elem, nb), tau: tau}
	}
	for k := 0; k < nt; k++ {
		w.panelTau[k] = mk()
		w.tsTau[k] = make([]tauStore[T], nt)
	}
	for i := 1; i < nt; i++ {
		for k := 0; k < i; k++ {
			w.tsTau[i][k] = mk()
		}
	}
	return w
}

// PanelTau exposes step k's tau vector (numeric mode; nil otherwise).
func (w *QRWork[T]) PanelTau(k int) []T { return w.panelTau[k].tau }

// GeqrfFlops reports the total QR work for an N x N matrix (4N^3/3).
func GeqrfFlops(n int) units.Flops {
	return units.Flops(linalg.GeqrfFlops(n))
}

// GeqrfTaskCount reports the DAG size for an nt x nt tile matrix.
func GeqrfTaskCount(nt int) int {
	n := 0
	for k := 0; k < nt; k++ {
		r := nt - k - 1
		n += 1 + r + r + r*r
	}
	return n
}
