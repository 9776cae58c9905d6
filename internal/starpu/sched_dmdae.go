package starpu

import (
	"math"

	"repro/internal/units"
)

// PowerModel is an optional Machine capability: the expected marginal
// power while a task runs on a worker.  It enables the energy-aware
// dmdae policy (the paper's future work: "dynamic scheduling algorithms
// optimizing energy efficiency").
type PowerModel interface {
	// ExecPower reports the draw added to the node while t runs on i.
	ExecPower(i int, t *Task) units.Watts
}

// dmdaeSched extends dmdas with an energy term: workers are chosen by
//
//	metric = ECT + penalty*transfer + gamma * E/P_ref
//
// where E is the task's estimated Joules on the worker and P_ref
// normalises Joules into seconds (StarPU's dmda exposes the same knob
// as --sched-gamma).  With gamma = 0 it degenerates to dmdas.
type dmdaeSched struct {
	dmSched
	gamma float64
	pref  float64 // reference power (W) converting J to s
}

func newDmdae() *dmdaeSched {
	return &dmdaeSched{
		dmSched: dmSched{name: "dmdae", dataAware: true, sorted: true},
		gamma:   1.0,
		pref:    100,
	}
}

func (s *dmdaeSched) Name() string { return "dmdae" }

func (s *dmdaeSched) Push(t *Task) {
	pm, ok := s.rt.machine.(PowerModel)
	if !ok {
		// No power information: behave exactly like dmdas.
		s.dmSched.Push(t)
		return
	}
	now := s.rt.machine.Engine().Now()
	best := -1
	bestMetric := units.Seconds(math.Inf(1))
	var bestECT units.Seconds
	var cands []Candidate
	var xfers transferMemo
	for i := 0; i < s.rt.machine.NumWorkers(); i++ {
		if !s.rt.CanRun(i, t.Codelet) {
			continue
		}
		w := s.rt.workers[i]
		avail := w.expEnd
		if now > avail {
			avail = now
		}
		est, calibrated := s.rt.estimate(t, i)
		ect := avail + est
		energy := float64(pm.ExecPower(i, t)) * float64(est)
		xfer := xfers.get(s.rt, t, w.Info.Node)
		metric := ect + xfer + units.Seconds(s.gamma*energy/s.pref)
		if s.rt.observing() {
			cands = append(cands, Candidate{Worker: i, Estimate: est, Transfer: xfer, Metric: metric, Calibrated: calibrated})
		}
		if metric < bestMetric {
			best, bestMetric, bestECT = i, metric, ect
		}
	}
	if best < 0 {
		panic("starpu: dmdae push found no eligible worker")
	}
	s.rt.workers[best].expEnd = bestECT
	s.queues[best].push(t)
	s.rt.observeDecision(Decision{Task: t, Scheduler: s.Name(), Chosen: best, Reason: "min-energy-completion-time", Candidates: cands})
	s.rt.WakeWorker(best)
}
