// Package sweepd is the sharded sweep service: a coordinator that
// loads a grid, shards its cells into deadline-bearing leases keyed by
// CheckpointKey, and dispatches them to worker processes over a small
// HTTP/JSON protocol — with lease expiry, bounded retry, per-cell
// failure budgets (a cell that keeps killing workers is quarantined as
// poisoned instead of wedging the sweep), work-stealing of straggler
// leases, worker supervision and graceful drain.
//
// Determinism boundary across processes: a job is declared, not
// shipped.  The JobSpec is a few serialisable fields; coordinator and
// every worker expand it independently through the same pure functions
// (core.GridCells / core.SweepCellConfigs), so all processes hold the
// same []Config in the same order, and a lease names a cell by index
// plus CheckpointKey.  The key is the version guard: a worker whose
// expansion disagrees (skewed binary, drifted tables) sees a key
// mismatch and rejects the lease rather than computing the wrong cell.
// Every cell's seed is a pure function of the job's root seed and the
// cell's identity, so which process runs a cell — or how many times it
// is re-leased, stolen or re-executed after a SIGKILL — cannot change
// its bytes.
package sweepd

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/faults"
)

// JobSpec declares one sweep job.  It is the unit the submit endpoint
// accepts and the joint input coordinator and workers expand: every
// field changes cell identity (and so the checkpoint manifest) except
// Name, which only labels artifacts, and Poison, which marks cells as
// worker-killing for the chaos harness.
type JobSpec struct {
	// Name labels the job's artifacts and journals; defaults to the
	// experiment name.
	Name string `json:"name,omitempty"`
	// Experiment selects the grid: "grid" (every Table II row × the
	// canonical plans, per-row derived seeds — the capbench grid
	// experiment) or "fig3"/"fig4" (GEMM+POTRF per platform in double /
	// single precision, one shared seed — the plan-sweep figures).
	Experiment string `json:"experiment"`
	// Platform filters rows to one platform name; "" or "all" keeps all.
	Platform string `json:"platform,omitempty"`
	// Scale divides matrix orders (core.ScaleRow); <= 1 is full size.
	Scale int `json:"scale,omitempty"`
	// Seed is the job's root seed.
	Seed int64 `json:"seed"`
	// Scheduler overrides dmdas.
	Scheduler string `json:"scheduler,omitempty"`
	// Faults is a deterministic fault-injection spec (faults.ParseSpec
	// syntax) applied to every cell.
	Faults string `json:"faults,omitempty"`
	// Poison marks cells whose CheckpointKey contains this substring as
	// worker-killing: a worker that leases one crashes the whole process
	// before simulating, every attempt.  This is the chaos harness's
	// forced-poison switch — such a cell must end quarantined, never
	// wedge the sweep.  Empty poisons nothing.
	Poison string `json:"poison,omitempty"`

	// Tenant attributes the job to a submitter for admission control
	// (per-tenant queue quota).  Like Name it labels, it does not change
	// cell results, so it is excluded from Identity — two tenants
	// submitting the same grid share one byte-identical job.
	Tenant string `json:"tenant,omitempty"`
	// Priority orders the queue: higher dispatches first, FIFO within a
	// priority.  Excluded from Identity.
	Priority int `json:"priority,omitempty"`
	// IdempotencyKey makes Submit replay-safe across retries and
	// coordinator restarts: a resubmission carrying a key the
	// coordinator has already accepted returns the original job instead
	// of enqueueing a second one.  Excluded from Identity.
	IdempotencyKey string `json:"idempotency_key,omitempty"`
}

// withDefaults normalises the spec.
func (j JobSpec) withDefaults() JobSpec {
	if j.Experiment == "" {
		j.Experiment = "grid"
	}
	if j.Scale < 1 {
		j.Scale = 1
	}
	if j.Platform == "" {
		j.Platform = "all"
	}
	if j.Name == "" {
		j.Name = j.Experiment
	}
	return j
}

// Validate expands the spec once to surface bad platforms, experiments
// or fault specs at submit time instead of on every worker.
func (j JobSpec) Validate() error {
	_, err := j.Cells()
	return err
}

// Identity is the job's checkpoint identity: everything that changes
// cell results, in a stable rendering.  Poison is included — a
// poisoned run must not resume (or donate results to) a clean run's
// journal, even though poisoned cells never commit.
func (j JobSpec) Identity() string {
	j = j.withDefaults()
	return fmt.Sprintf("sweepd|v1|%s|platform=%s|scale=%d|seed=%d|scheduler=%s|faults=%s|poison=%s",
		j.Experiment, j.Platform, j.Scale, j.Seed, j.Scheduler, j.Faults, j.Poison)
}

// ID is the short job identifier used on the wire: the first 12 hex
// digits of the identity hash.
func (j JobSpec) ID() string {
	sum := sha256.Sum256([]byte(j.Identity()))
	return hex.EncodeToString(sum[:])[:12]
}

// Cells expands the job into the executor's flat, deterministic cell
// list.  Coordinator and workers call this independently and must (and
// do) agree: the expansion is a pure function of the spec.
func (j JobSpec) Cells() ([]core.Config, error) {
	j = j.withDefaults()
	spec, err := faults.ParseSpec(j.Faults)
	if err != nil {
		return nil, fmt.Errorf("sweepd: job faults: %w", err)
	}
	rows, err := core.ExperimentRows(j.Experiment, j.Platform, j.Scale)
	if err != nil {
		return nil, fmt.Errorf("sweepd: job: %w", err)
	}
	if j.Experiment == "grid" {
		return core.GridCells(core.GridSpec{
			Rows:     rows,
			Sweep:    core.SweepOptions{Scheduler: j.Scheduler, Faults: spec},
			RootSeed: j.Seed,
		})
	}
	return core.SweepCellConfigs(rows, core.SweepOptions{
		Scheduler: j.Scheduler, Seed: j.Seed, Faults: spec,
	})
}

// Poisoned reports whether a cell key falls under the job's poison
// marker.
func (j JobSpec) Poisoned(cellKey string) bool {
	return j.Poison != "" && strings.Contains(cellKey, j.Poison)
}
