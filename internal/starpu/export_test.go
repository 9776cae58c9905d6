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

// NewInterleavedTestMachine returns a test machine whose scoring
// groups interleave in worker order: GPU workers 1 and 3 share a power
// domain (and a class string), GPU worker 2 has a domain of its own,
// all three on one memory node.  A group-major scan meets worker 3
// before worker 2, so a tie between them exercises the cross-group
// tie-break.
func NewInterleavedTestMachine() Machine {
	m := newTestMachine()
	m.rates = []float64{1e9, 20e9, 20e9, 20e9}
	m.infos = []WorkerInfo{
		{Name: "cpu0", Kind: CPUWorker, Node: 0},
		{Name: "cudaA", Kind: CUDAWorker, Node: 1},
		{Name: "cudaB", Kind: CUDAWorker, Node: 1},
		{Name: "cudaA", Kind: CUDAWorker, Node: 1},
	}
	return &domainMachine{testMachine: m, domains: []int{2, 0, 1, 0}}
}

// domainMachine is a test machine with a DomainModel.
type domainMachine struct {
	*testMachine
	domains []int
}

func (m *domainMachine) Domain(i int) int { return m.domains[i] }

// ExpEnd reports worker i's expected-availability horizon under a
// dm-family policy.
func ExpEnd(rt *Runtime, i int) units.Seconds { return dm(rt).expEnd[i] }

// SetExpEnd overwrites worker i's expected-availability horizon under
// a dm-family policy.
func SetExpEnd(rt *Runtime, i int, v units.Seconds) { dm(rt).expEnd[i] = v }

// dm returns a dm-family runtime's scheduler, reference Push or not.
func dm(rt *Runtime) *dmSched {
	if r, ok := rt.sched.(referenceSched); ok {
		return r.dmSched
	}
	return rt.sched.(*dmSched)
}

// Pricings reports how many group members a dm-family runtime's
// grouped Push has priced.
func Pricings(rt *Runtime) uint64 { return dm(rt).priced }

// SetValid overwrites the set of nodes holding a valid copy of h.
func SetValid(h *Handle, nodes uint64) { h.valid = nodeSet(nodes) }

// PickSource exposes the runtime's source choice for staging h to dst.
func PickSource(rt *Runtime, h *Handle, dst int) int { return rt.pickSource(h, dst) }

// TransferEstimate is dmda's transfer term for t on node, priced one
// node at a time from the transfer table: the per-group walk that
// transferEstimates replaced.
func TransferEstimate(rt *Runtime, t *Task, node int) units.Seconds {
	var sum units.Seconds
	for _, h := range t.Handles {
		if h.valid.has(node) {
			continue
		}
		sum += rt.transferTime(h, rt.pickSource(h, node), node)
	}
	return units.Seconds(float64(sum) * transferPenalty)
}

// TransferEstimates exposes the one-walk transfer vector for t, one
// entry per memory node.
func TransferEstimates(rt *Runtime, t *Task) []units.Seconds {
	xfer := make([]units.Seconds, rt.nodes)
	rt.transferEstimates(xfer, t)
	return xfer
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

// RefTransferEstimate is TransferEstimate priced straight from the
// machine.
func RefTransferEstimate(rt *Runtime, t *Task, node int) units.Seconds {
	var sum units.Seconds
	for _, h := range t.Handles {
		if h.valid.has(node) {
			continue
		}
		src := RefPickSource(rt, h, node)
		sum += rt.machine.TransferTime(src, node, h.bytes)
	}
	return units.Seconds(float64(sum) * transferPenalty)
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
		avail := s.expEnd[i]
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
	s.expEnd[best] = bestECT
	s.queues[best].push(t)
	rt.observeDecision(Decision{Task: t, Scheduler: s.name, Chosen: best, Reason: reason, Candidates: cands})
	rt.WakeWorker(best)
}
