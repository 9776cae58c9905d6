package starpu_test

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/platform"
	"repro/internal/prec"
	"repro/internal/starpu"
	"repro/internal/units"
)

// pushScheds are the policies sharing the grouped Push kernel.
var pushScheds = []string{"dm", "dmda", "dmdas", "dmdae"}

// Codelets for the push sequences: both kinds, CPU only, GPU only.
var (
	pushAny = &starpu.Codelet{Name: "pany", Precision: prec.Double, CanCPU: true, CanCUDA: true, GPUEfficiency: 0.9, CPUEfficiency: 0.9}
	pushCPU = &starpu.Codelet{Name: "pcpu", Precision: prec.Single, CanCPU: true, CPUEfficiency: 0.8}
	pushGPU = &starpu.Codelet{Name: "pgpu", Precision: prec.Single, CanCUDA: true, GPUEfficiency: 0.7}
)

// pushEnv is one runtime under a push sequence, with every decision it
// made (Candidates copied: the runtime reuses the slice).
type pushEnv struct {
	rt        *starpu.Runtime
	plat      *platform.Platform // nil on the test machine
	handles   []*starpu.Handle
	decisions []starpu.Decision
}

func (e *pushEnv) TaskSubmitted(*starpu.Task)      {}
func (e *pushEnv) TaskStarted(int, *starpu.Task)   {}
func (e *pushEnv) TaskCompleted(int, *starpu.Task) {}
func (e *pushEnv) SchedDecision(d starpu.Decision) {
	d.Candidates = append([]starpu.Candidate(nil), d.Candidates...)
	e.decisions = append(e.decisions, d)
}

// newMachine builds a fresh machine: "test" is the package's test
// machine (with its PowerModel when power is set), any other name a
// platform.
func newMachine(t testing.TB, name string, power bool) (starpu.Machine, *platform.Platform) {
	if name == "test" {
		return starpu.NewTestMachine(power), nil
	}
	spec, err := platform.SpecByName(name)
	if err != nil {
		t.Fatal(err)
	}
	p, err := platform.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	return p, p
}

// tileHandles registers the tiles of a 1000-wide matrix cut into
// 192-wide tiles, in two element sizes: three tile shapes (full, edge,
// corner) times two, two handles each.
func tileHandles(rt *starpu.Runtime) []*starpu.Handle {
	var hs []*starpu.Handle
	for _, elem := range []units.Bytes{4, 8} {
		for _, dims := range [][2]int{{192, 192}, {192, 1000 % 192}, {1000 % 192, 1000 % 192}} {
			for k := 0; k < 2; k++ {
				hs = append(hs, rt.Register(nil, elem, dims[0], dims[1]))
			}
		}
	}
	return hs
}

// newPushEnv builds a runtime over a fresh machine, with the reference
// per-worker Push when ref is set.
func newPushEnv(t testing.TB, machine, sched string, ref bool) *pushEnv {
	e := &pushEnv{}
	m, plat := newMachine(t, machine, sched == "dmdae")
	rt, err := starpu.New(m, starpu.Config{Scheduler: sched, Seed: 1, Observer: e})
	if err != nil {
		t.Fatal(err)
	}
	if ref {
		starpu.UseReferencePush(rt)
	}
	e.rt, e.plat, e.handles = rt, plat, tileHandles(rt)
	return e
}

// spare reports whether a worker of worker i's kind other than i can
// still take work.  Dropouts and evictions keep one per kind: a released
// task no surviving worker can run is a runtime panic, not a scheduling
// decision.
func (e *pushEnv) spare(i int) bool {
	ws := e.rt.Workers()
	for j, w := range ws {
		if j == i || w.Dead() || w.Info.Kind != ws[i].Info.Kind {
			continue
		}
		if e.plat == nil || w.Info.Kind == starpu.CPUWorker || e.plat.GPUAlive(e.plat.WorkerGPU(j)) {
			return true
		}
	}
	return false
}

// byteReader hands out bounded choices from an op schedule; an
// exhausted schedule reads as zeros.
type byteReader struct {
	b []byte
	i int
}

func (r *byteReader) more() bool { return r.i < len(r.b) }

func (r *byteReader) next(n int) int {
	if r.i >= len(r.b) {
		return 0
	}
	v := int(r.b[r.i]) % n
	r.i++
	return v
}

// pushStep decodes one operation from r and returns it as a function
// applied identically to each runtime of a pair.  The operations are
// those a sweep performs around Push: submits (pushed at once when
// dependency-free, else on release), forced equal exp_end horizons,
// clock advances (which run tasks, record samples and release
// successors), GPU and CPU cap writes and throttle windows (which
// change class strings), GPU dropouts and worker evictions.
func pushStep(r *byteReader, spec *platform.Spec) func(e *pushEnv) error {
	horizons := []units.Seconds{0, 1e-3, 2e-3}
	switch op := r.next(12); op {
	case 0, 1, 2, 3, 4:
		cl := []*starpu.Codelet{pushAny, pushAny, pushCPU, pushGPU}[r.next(4)]
		work := units.Flops([]float64{1e7, 1e7, 4e7, 2.5e8}[r.next(4)])
		prio := r.next(3)
		n := 1 + r.next(3)
		hs := make([]int, n)
		modes := make([]starpu.AccessMode, n)
		for i := range hs {
			hs[i] = r.next(12)
			modes[i] = []starpu.AccessMode{starpu.R, starpu.R, starpu.RW}[r.next(3)]
		}
		return func(e *pushEnv) error {
			task := &starpu.Task{Codelet: cl, Work: work, Priority: prio, Modes: modes}
			for _, h := range hs {
				task.Handles = append(task.Handles, e.handles[h])
			}
			return e.rt.Submit(task)
		}
	case 5:
		v := horizons[r.next(len(horizons))]
		mask := r.next(256)
		return func(e *pushEnv) error {
			now := e.rt.Machine().Engine().Now()
			for i := range e.rt.Workers() {
				if mask&(1<<(i%8)) != 0 {
					starpu.SetExpEnd(e.rt, i, now+v)
				}
			}
			return nil
		}
	case 6:
		past := r.next(2) == 0
		dt := units.Seconds([]float64{1e-4, 5e-3, 5e-2, 0.5}[r.next(4)])
		return func(e *pushEnv) error {
			engine := e.rt.Machine().Engine()
			until := engine.Now() + dt
			if past { // beyond every exp_end: every worker's avail is now
				for i := range e.rt.Workers() {
					if x := starpu.ExpEnd(e.rt, i) + dt; x > until {
						until = x
					}
				}
			}
			engine.RunUntil(until)
			return nil
		}
	case 7:
		if spec == nil {
			return nil
		}
		caps := make([]units.Watts, spec.GPUCount)
		a := spec.GPUArch
		for g := range caps {
			caps[g] = []units.Watts{0, a.MinPower, (a.MinPower + a.TDP) / 2, a.TDP}[r.next(4)]
		}
		return func(e *pushEnv) error { return e.plat.SetGPUCaps(caps) }
	case 8:
		if spec == nil {
			return nil
		}
		socket := r.next(spec.Sockets)
		cap := units.Watts([]float64{0, 0.6, 0.8}[r.next(3)]) * spec.CPUArch.TDP
		return func(e *pushEnv) error { return e.plat.SetCPUCap(socket, cap) }
	case 9:
		if spec == nil {
			return nil
		}
		g := r.next(spec.GPUCount)
		clear := r.next(2) == 0
		limit := spec.GPUArch.MinPower * units.Watts(1+0.1*float64(r.next(4)))
		return func(e *pushEnv) error {
			if clear {
				e.plat.ClearGPUThrottle(g)
			} else {
				e.plat.ThrottleGPU(g, limit)
			}
			return nil
		}
	case 10: // dropout: the board dies, and the injector evicts its worker
		if spec == nil {
			return nil
		}
		g := r.next(spec.GPUCount)
		evict := r.next(2) == 0
		return func(e *pushEnv) error {
			for i := range e.rt.Workers() {
				if e.plat.WorkerGPU(i) == g && e.spare(i) {
					e.plat.KillGPU(g)
					if evict {
						e.rt.EvictWorker(i, "gpu-dropout")
					}
				}
			}
			return nil
		}
	default:
		w := r.next(64)
		return func(e *pushEnv) error {
			if i := w % len(e.rt.Workers()); e.spare(i) {
				e.rt.EvictWorker(i, "test")
			}
			return nil
		}
	}
}

// comparePush runs ops on a grouped and a reference runtime in lock
// step, failing at the first step where a Submit outcome, a decision
// (chosen worker, reason, full Candidates) or any worker's exp_end
// differs.  It reports the decisions made and how many had a tie for
// the least metric.
func comparePush(t testing.TB, machine, sched string, ops []byte) (decisions, ties int) {
	got := newPushEnv(t, machine, sched, false)
	want := newPushEnv(t, machine, sched, true)
	var spec *platform.Spec
	if got.plat != nil {
		spec = &got.plat.Spec
	}
	r := &byteReader{b: ops}
	for step := 0; r.more(); step++ {
		apply := pushStep(r, spec)
		if apply == nil {
			continue
		}
		gotErr, wantErr := apply(got), apply(want)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%s/%s step %d: error %v, reference %v", machine, sched, step, gotErr, wantErr)
		}
		if len(got.decisions) != len(want.decisions) {
			t.Fatalf("%s/%s step %d: %d decisions, reference %d", machine, sched, step, len(got.decisions), len(want.decisions))
		}
		for k := decisions; k < len(got.decisions); k++ {
			g, w := got.decisions[k], want.decisions[k]
			if g.Task.ID != w.Task.ID || g.Chosen != w.Chosen || g.Reason != w.Reason || g.Time != w.Time ||
				!reflect.DeepEqual(g.Candidates, w.Candidates) {
				t.Fatalf("%s/%s step %d decision %d:\n got  %+v\n want %+v", machine, sched, step, k, g, w)
			}
			if hasTie(g.Candidates) {
				ties++
			}
		}
		decisions = len(got.decisions)
		for i := range got.rt.Workers() {
			if g, w := starpu.ExpEnd(got.rt, i), starpu.ExpEnd(want.rt, i); g != w {
				t.Fatalf("%s/%s step %d: worker %d exp_end %v, reference %v", machine, sched, step, i, g, w)
			}
		}
	}
	return decisions, ties
}

// hasTie reports whether two candidates share the least metric.
func hasTie(cands []starpu.Candidate) bool {
	n := 0
	var least units.Seconds
	for _, c := range cands {
		switch {
		case n == 0 || c.Metric < least:
			n, least = 1, c.Metric
		case c.Metric == least:
			n++
		}
	}
	return n > 1
}

// pushMachines are the three paper platforms and the ungrouped test
// machine.
func pushMachines() []string {
	var out []string
	for _, s := range platform.AllSpecs() {
		out = append(out, s.Name)
	}
	return append(out, "test")
}

// TestGroupedPushMatchesReference drives seeded, tie-heavy operation
// sequences through the grouped Push and the per-worker reference on
// every platform and dm-family policy, comparing every decision and
// every exp_end after each step.
func TestGroupedPushMatchesReference(t *testing.T) {
	for _, machine := range pushMachines() {
		for _, sched := range pushScheds {
			var decisions, ties int
			for seed := int64(0); seed < 12; seed++ {
				ops := make([]byte, 1000)
				rand.New(rand.NewSource(seed)).Read(ops)
				d, n := comparePush(t, machine, sched, ops)
				decisions += d
				ties += n
			}
			if decisions < 500 || ties == 0 {
				t.Errorf("%s/%s: %d decisions, %d with tied metrics; the sequences exercise too little", machine, sched, decisions, ties)
			}
		}
	}
}

// FuzzGroupedPush runs fuzzed operation schedules through the grouped
// and reference Push; the first two bytes pick the machine and policy.
func FuzzGroupedPush(f *testing.F) {
	f.Add([]byte{0, 2, 0, 0, 0, 3, 0, 255, 0, 0, 0, 4, 0, 2})
	f.Add([]byte{1, 3, 5, 1, 1, 0, 1, 2, 3, 4, 1, 0, 0, 9, 3, 0, 0, 0})
	f.Add([]byte{2, 1, 8, 0, 1, 0, 1, 7, 0, 0, 2, 0, 2, 1, 6, 4, 0, 2})
	f.Add([]byte{3, 0, 9, 1, 0, 0, 0, 0, 3, 1, 127, 4, 1, 2})
	machines := pushMachines()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 || len(data) > 512 {
			return
		}
		machine := machines[int(data[0])%len(machines)]
		sched := pushScheds[int(data[1])%len(pushScheds)]
		comparePush(t, machine, sched, data[2:])
	})
}

// TestTransferTableMatchesMachine: pickSource and transferEstimate read
// the cached transfer table; over random valid sets and every tile
// size they must equal the choice and sum priced straight from
// Machine.TransferTime, and stay zero with the transfer model off.
func TestTransferTableMatchesMachine(t *testing.T) {
	for _, machine := range pushMachines() {
		for _, disable := range []bool{false, true} {
			m, _ := newMachine(t, machine, false)
			rt, err := starpu.New(m, starpu.Config{DisableTransferModel: disable})
			if err != nil {
				t.Fatal(err)
			}
			handles := tileHandles(rt)
			nodes := m.NumNodes()
			rng := rand.New(rand.NewSource(int64(nodes)))
			for k := 0; k < 300; k++ {
				task := &starpu.Task{Codelet: pushAny}
				for n := 1 + rng.Intn(3); n > 0; n-- {
					h := handles[rng.Intn(len(handles))]
					starpu.SetValid(h, 1+uint64(rng.Intn(1<<nodes-1)))
					task.Handles = append(task.Handles, h)
				}
				for dst := 0; dst < nodes; dst++ {
					for _, h := range task.Handles {
						if g, w := starpu.PickSource(rt, h, dst), starpu.RefPickSource(rt, h, dst); g != w {
							t.Fatalf("%s: pickSource(%v -> node %d) = %d, direct %d", machine, h.Bytes(), dst, g, w)
						}
					}
					g, w := starpu.TransferEstimate(rt, task, dst), starpu.RefTransferEstimate(rt, task, dst)
					if g != w || (disable && g != 0) {
						t.Fatalf("%s disable=%v: transferEstimate(node %d) = %v, direct %v", machine, disable, dst, g, w)
					}
				}
			}
		}
	}
}
