// Package chameleon reimplements the slice of the Chameleon dense
// linear-algebra library the paper uses: tiled matrix descriptors and
// task-DAG builders for GEMM, Cholesky (POTRF) and tile QR (GEQRF),
// plus the Cholesky solve drivers and a mixed-precision solver, all
// with the expert-assigned task priorities that the dmdas scheduler
// consumes.
//
// Each builder submits tasks to a starpu.Runtime.  Tasks carry both a
// cost description (flop counts, codelets with per-device efficiency
// factors) for the simulated energy runs, and an optional numeric body
// over real tiles for correctness validation.
package chameleon

import (
	"fmt"
	"math/rand"
	"strconv"

	"repro/internal/linalg"
	"repro/internal/prec"
	"repro/internal/starpu"
)

// Desc is a tiled M x N matrix registered with the runtime: an MT x NT
// grid of NB x NB tiles (edge tiles may be smaller when NB does not
// divide the dimension).
type Desc[T linalg.Float] struct {
	// M and N are the global dimensions, NB the (square) tile size,
	// MT and NT the tile counts per dimension.
	M, N, NB, MT, NT int

	handles [][]*starpu.Handle
	tiles   [][]*linalg.Mat[T] // nil when the descriptor is cost-only
}

// PrecisionOf reports the runtime precision tag for T.
func PrecisionOf[T linalg.Float]() prec.Precision {
	var z T
	if _, ok := any(z).(float32); ok {
		return prec.Single
	}
	return prec.Double
}

// NewDesc registers a square N x N matrix tiled by NB with the runtime.
// When numeric is true, real zeroed tiles back the handles.
func NewDesc[T linalg.Float](rt *starpu.Runtime, n, nb int, numeric bool) (*Desc[T], error) {
	return NewDescRect[T](rt, n, n, nb, numeric)
}

// NewDescRect registers an M x N matrix tiled by NB (rectangular
// descriptors back block right-hand sides and tall-skinny panels).
func NewDescRect[T linalg.Float](rt *starpu.Runtime, m, n, nb int, numeric bool) (*Desc[T], error) {
	if m <= 0 || n <= 0 || nb <= 0 {
		return nil, fmt.Errorf("chameleon: invalid descriptor %dx%d tiles of %d", m, n, nb)
	}
	d := &Desc[T]{
		M: m, N: n, NB: nb,
		MT: (m + nb - 1) / nb,
		NT: (n + nb - 1) / nb,
	}
	elem := PrecisionOf[T]().Bytes()
	d.handles = make([][]*starpu.Handle, d.MT)
	if numeric {
		d.tiles = make([][]*linalg.Mat[T], d.MT)
	}
	for i := 0; i < d.MT; i++ {
		d.handles[i] = make([]*starpu.Handle, d.NT)
		if numeric {
			d.tiles[i] = make([]*linalg.Mat[T], d.NT)
		}
		for j := 0; j < d.NT; j++ {
			r, c := d.TileRows(i), d.TileCols(j)
			var data interface{}
			if numeric {
				mat := linalg.NewMat[T](r, c)
				d.tiles[i][j] = mat
				data = mat
			}
			d.handles[i][j] = rt.Register(data, elem, r, c)
		}
	}
	return d, nil
}

// Square reports whether the descriptor is N x N.
func (d *Desc[T]) Square() bool { return d.M == d.N }

// TileRows reports the height of tile row i.
func (d *Desc[T]) TileRows(i int) int {
	if i == d.MT-1 && d.M%d.NB != 0 {
		return d.M % d.NB
	}
	return d.NB
}

// TileCols reports the width of tile column j.
func (d *Desc[T]) TileCols(j int) int {
	if j == d.NT-1 && d.N%d.NB != 0 {
		return d.N % d.NB
	}
	return d.NB
}

// TileDim reports the size of diagonal tile k (square descriptors).
func (d *Desc[T]) TileDim(k int) int { return d.TileCols(k) }

// Handle reports the runtime handle of tile (i, j).
func (d *Desc[T]) Handle(i, j int) *starpu.Handle { return d.handles[i][j] }

// Tile reports the numeric tile (i, j); nil for cost-only descriptors.
func (d *Desc[T]) Tile(i, j int) *linalg.Mat[T] {
	if d.tiles == nil {
		return nil
	}
	return d.tiles[i][j]
}

// Numeric reports whether real tiles back the descriptor.
func (d *Desc[T]) Numeric() bool { return d.tiles != nil }

// Scatter copies a full matrix into the tiles (numeric descriptors only).
func (d *Desc[T]) Scatter(m *linalg.Mat[T]) error {
	if !d.Numeric() {
		return fmt.Errorf("chameleon: Scatter on cost-only descriptor")
	}
	if m.Rows != d.M || m.Cols != d.N {
		return fmt.Errorf("chameleon: Scatter %dx%d into %dx%d descriptor", m.Rows, m.Cols, d.M, d.N)
	}
	for i := 0; i < d.MT; i++ {
		for j := 0; j < d.NT; j++ {
			src := m.Sub(i*d.NB, j*d.NB, d.TileRows(i), d.TileCols(j))
			dst := d.tiles[i][j]
			for r := 0; r < dst.Rows; r++ {
				copy(dst.Row(r), src.Row(r)[:dst.Cols])
			}
		}
	}
	return nil
}

// Gather reassembles the tiles into a full matrix.
func (d *Desc[T]) Gather() (*linalg.Mat[T], error) {
	if !d.Numeric() {
		return nil, fmt.Errorf("chameleon: Gather on cost-only descriptor")
	}
	out := linalg.NewMat[T](d.M, d.N)
	for i := 0; i < d.MT; i++ {
		for j := 0; j < d.NT; j++ {
			src := d.tiles[i][j]
			dst := out.Sub(i*d.NB, j*d.NB, src.Rows, src.Cols)
			for r := 0; r < src.Rows; r++ {
				copy(dst.Row(r)[:src.Cols], src.Row(r))
			}
		}
	}
	return out, nil
}

// FillRandom fills numeric tiles with uniform values in [-1, 1).
func (d *Desc[T]) FillRandom(rng *rand.Rand) error {
	if !d.Numeric() {
		return fmt.Errorf("chameleon: FillRandom on cost-only descriptor")
	}
	for i := 0; i < d.MT; i++ {
		for j := 0; j < d.NT; j++ {
			linalg.FillRandom(d.tiles[i][j], rng)
		}
	}
	return nil
}

// FillSPD loads a symmetric positive-definite matrix (built densely,
// then scattered — fine for validation sizes).
func (d *Desc[T]) FillSPD(rng *rand.Rand) error {
	if !d.Square() {
		return fmt.Errorf("chameleon: FillSPD on %dx%d descriptor", d.M, d.N)
	}
	return d.Scatter(linalg.NewSPD[T](d.N, rng))
}

// taskTag renders a task tag "name(a,b,...)" — byte-identical to
// fmt.Sprintf("%s(%d,%d,...)") — into a stack buffer, so the only
// allocation per task is the tag string itself.
func taskTag(name string, idx ...int) string {
	var buf [48]byte
	b := append(buf[:0], name...)
	b = append(b, '(')
	for n, i := range idx {
		if n > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(i), 10)
	}
	return string(append(b, ')'))
}
