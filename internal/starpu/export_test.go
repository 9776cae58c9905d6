package starpu

import (
	"math"

	"repro/internal/units"
)

// Test-only hooks for the external starpu_test package, whose tests
// drive the runtime over the real platforms (the platform package
// imports starpu, so those tests cannot live in package starpu).

// NewTestMachine returns the package's miniature test machine, wrapped
// with its PowerModel when power is set.
func NewTestMachine(power bool) Machine {
	if power {
		return &powerMachine{newTestMachine()}
	}
	return newTestMachine()
}

// ExpEnd reports worker i's expected-availability horizon.
func ExpEnd(rt *Runtime, i int) units.Seconds { return rt.workers[i].expEnd }

// SetExpEnd overwrites worker i's expected-availability horizon.
func SetExpEnd(rt *Runtime, i int, v units.Seconds) { rt.workers[i].expEnd = v }

// SetValid overwrites the set of nodes holding a valid copy of h.
func SetValid(h *Handle, nodes uint64) { h.valid = nodeSet(nodes) }

// PickSource exposes the runtime's source choice for staging h to dst.
func PickSource(rt *Runtime, h *Handle, dst int) int { return rt.pickSource(h, dst) }

// TransferEstimate exposes dmda's transfer term for t on node.
func TransferEstimate(rt *Runtime, t *Task, node int) units.Seconds {
	return rt.transferEstimate(t, node)
}

// RefPickSource is pickSource priced straight from the machine: every
// node index in order, lowest index on ties.
func RefPickSource(rt *Runtime, h *Handle, dst int) int {
	best, bestT := 0, units.Seconds(math.Inf(1))
	for n := 0; n < rt.machine.NumNodes(); n++ {
		if !h.valid.has(n) {
			continue
		}
		tt := rt.machine.TransferTime(n, dst, h.bytes)
		if tt < bestT {
			best, bestT = n, tt
		}
	}
	return best
}

// RefTransferEstimate is transferEstimate priced straight from the
// machine.
func RefTransferEstimate(rt *Runtime, t *Task, node int) units.Seconds {
	if rt.cfg.DisableTransferModel {
		return 0
	}
	var sum units.Seconds
	for _, h := range t.Handles {
		if h.valid.has(node) {
			continue
		}
		src := RefPickSource(rt, h, node)
		sum += rt.machine.TransferTime(src, node, h.bytes)
	}
	return units.Seconds(float64(sum) * rt.cfg.TransferPenalty)
}

// UseReferencePush swaps a dm-family runtime's Push for referenceSched,
// keeping its queues and Pop.
func UseReferencePush(rt *Runtime) {
	rt.sched = referenceSched{rt.sched.(*dmSched)}
}

// referenceSched is the per-worker dm-family Push the grouped kernel
// replaced, kept as the equivalence oracle: it asks the machine about
// every worker of every push and prices transfers without the table.
type referenceSched struct {
	*dmSched
}

func (s referenceSched) Push(t *Task) {
	rt := s.rt
	now := rt.machine.Engine().Now()
	best := -1
	bestMetric := units.Seconds(math.Inf(1))
	var bestECT units.Seconds
	var cands []Candidate
	for i := 0; i < rt.machine.NumWorkers(); i++ {
		if !rt.CanRun(i, t.Codelet) {
			continue
		}
		w := rt.workers[i]
		avail := w.expEnd
		if now > avail {
			avail = now
		}
		est, calibrated := rt.estimate(t, i)
		ect := avail + est
		metric := ect
		var xfer units.Seconds
		if s.dataAware {
			xfer = RefTransferEstimate(rt, t, w.Info.Node)
			metric += xfer
		}
		if s.power != nil {
			energy := float64(s.power.ExecPower(i, t)) * float64(est)
			metric = ect + xfer + units.Seconds(s.gamma*energy/s.pref)
		}
		if rt.observing() {
			cands = append(cands, Candidate{Worker: i, Estimate: est, Transfer: xfer, Metric: metric, Calibrated: calibrated})
		}
		if metric < bestMetric {
			best, bestMetric, bestECT = i, metric, ect
		}
	}
	if best < 0 {
		panic("starpu: reference push found no eligible worker")
	}
	reason := "min-completion-time"
	if s.power != nil {
		reason = "min-energy-completion-time"
	}
	rt.workers[best].expEnd = bestECT
	s.queues[best].push(t)
	rt.observeDecision(Decision{Task: t, Scheduler: s.name, Chosen: best, Reason: reason, Candidates: cands})
	rt.WakeWorker(best)
}
