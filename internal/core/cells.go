// The lease-aware seam of the sweep executor: deterministic cell
// expansion exported for the sharded sweep service (internal/sweepd).
//
// A distributed sweep needs coordinator and workers — separate
// processes, possibly separate binaries — to agree on the exact cell
// list without shipping Configs over the wire (a Config holds platform
// specs, plan values and maps that have no canonical wire form).  The
// contract here makes that possible: cell expansion is a pure function
// of the grid declaration, so every process expands the same spec to
// the same []Config in the same order, and a cell is addressed by its
// position plus its CheckpointKey.  The key doubles as a version guard:
// a worker whose expansion disagrees with the coordinator's (skewed
// binary, drifted Table II) sees a key mismatch and refuses the lease
// instead of silently computing the wrong cell.
package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"

	"repro/internal/telemetry/agg"
)

// GridCells expands a GridSpec into the executor's flat cell list —
// exactly the Configs RunGrid feeds its pool, in the same order: per
// row, the all-H baseline first, then every non-baseline plan, with
// row seeds derived CellSeed(RootSeed, rowKey).  The expansion is a
// pure function of the spec: any process expanding the same spec gets
// the same cells with the same CheckpointKeys.
func GridCells(spec GridSpec) ([]Config, error) {
	cfgs, _, err := expandCells(spec.Rows, spec.rowOptions())
	return cfgs, err
}

// SweepCellConfigs expands a figure-style sweep — every row sharing one
// SweepOptions (and so one seed), the shape of ParallelSweep and the
// fig3/fig4 experiments — into the executor's flat cell list.
func SweepCellConfigs(rows []TableIIRow, opt SweepOptions) ([]Config, error) {
	cfgs, _, err := expandCells(rows, sameOptions(opt, len(rows)))
	return cfgs, err
}

// ScaleRow shrinks a Table II row by an integral factor, keeping the
// tile size (and so the per-task behaviour) intact; the reduced order
// is clamped to two tiles per dimension.  This is the one reduction
// rule every reduced sweep in the repo shares — the CLI's -scale flag,
// the benchmark corpus and the sweep service's job spec — so a scaled
// row means the same cells no matter which entry point built it.
func ScaleRow(r TableIIRow, scale int) TableIIRow {
	if scale <= 1 {
		return r
	}
	nt := r.N / r.NB / scale
	if nt < 2 {
		nt = 2
	}
	r.N = nt * r.NB
	return r
}

// EncodeResult serialises a Result with the checkpoint journal's exact
// codec (codec.go: fixed schema, versioned, float64 bit-for-bit).
// Exported for the sweep service: workers ship results to the
// coordinator in the same bytes the journal stores, so a result is
// byte-identical whether it arrived over HTTP, was restored from a
// journal, or was computed in-process.
func EncodeResult(res *Result) ([]byte, error) { return encodeResult(res) }

// DecodeResult restores a Result encoded by EncodeResult.  A payload of
// another codec version, or an old gob record, fails with a
// *ResultFormatError.
func DecodeResult(payload []byte) (*Result, error) { return decodeResult(payload) }

// Digest is the byte-identity fingerprint of one completed cell: the
// SHA-256 of the canonical JSON of its full Result and its aggregation
// rollup.  encoding/json renders map keys sorted and float64 values in
// shortest-round-trip form, so the encoding is a pure deterministic
// function of the numeric state — two runs digest equal iff every row,
// device split, schedule stat, span and sketch is bit-identical.
func Digest(cfg Config, res *Result) (string, error) {
	blob, err := json.Marshal(struct {
		Result *Result        `json:"result"`
		Rollup agg.CellRollup `json:"rollup"`
	}{res, BuildRollup(cfg, res)})
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:]), nil
}
