package benchcheck

import (
	"testing"

	"repro/internal/core"
	"repro/internal/eventsim"
	"repro/internal/platform"
	"repro/internal/prec"
)

// TestPoolingEquivalence is the property test behind the free-list
// passes: recycling event-queue and span backing arrays and DAG storage
// is a pure allocation optimization, so running with pools disabled must digest
// bit-identically to running with pools enabled.  A divergence here
// means a recycled array leaked state between cells (reuse before
// reset), which the byte-identity corpus gate alone could mask if both
// golden and candidate run pooled.
//
// The subset keeps the test cheap but must cover the paths where
// stale-state bugs would hide: faulted cells (queues recycled after an
// abort), traced cells (span arrays recycled into the trace buffer) and
// a small DAG instantiated into the storage a bigger one left behind.
func TestPoolingEquivalence(t *testing.T) {
	cells := Corpus()
	var subset []Cell
	faulted, traced, plain := 0, 0, 0
	for _, c := range cells {
		switch {
		case !c.Cfg.Faults.Zero() && faulted < 2:
			faulted++
		case c.Cfg.Trace && traced < 2:
			traced++
		case plain < 2:
			plain++
		default:
			continue
		}
		subset = append(subset, c)
	}
	if faulted == 0 || traced == 0 {
		t.Fatalf("corpus subset missing coverage: %d faulted, %d traced", faulted, traced)
	}
	// Recycled DAG storage (core.Run's arenas) must not leak between
	// cells either: on the one worker, a 364-task DAG spanning several
	// storage chunks runs right before an 8-task one.
	subset = append(subset,
		cell("4xA100-potrf-s-HHBB-12tiles", platform.FourA100Name, core.POTRF, prec.Single, 12, "HHBB", nil),
		cell("2xV100-gemm-d-HB-2tiles", platform.TwoV100Name, core.GEMM, prec.Double, 2, "HB", nil))

	pooled := runCorpus(t, subset, core.ParallelOptions{Workers: 1})

	defer eventsim.SetPooling(eventsim.SetPooling(false))
	unpooled := runCorpus(t, subset, core.ParallelOptions{Workers: 1})

	for i, c := range subset {
		if pooled[i] != unpooled[i] {
			t.Errorf("cell %s: pooled digest differs from unpooled\npooled   %s\nunpooled %s",
				c.Name, pooled[i], unpooled[i])
		}
	}
}
