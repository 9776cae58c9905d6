package eventsim

import (
	"testing"

	"repro/internal/units"
)

// firing records one event execution: the order in which the event was
// handed to the engine, and the clock when it fired.
type firing struct {
	schedOrder int
	at         units.Seconds
}

// firingLog is the typed-event handler of the fuzz programs: the event
// argument is its scheduling order.
type firingLog struct {
	e     *Engine
	fired []firing
}

func (l *firingLog) Fire(arg uint64) {
	l.fired = append(l.fired, firing{schedOrder: int(arg), at: l.e.Now()})
}

// runFuzzProgram decodes fuzz bytes into a deterministic scheduling
// program and executes it.  Three bytes per instruction: opcode, then a
// 16-bit operand.  Closure and typed events interleave in one program,
// so the FIFO check covers same-time events of both kinds.  Offsets are quantised to a coarse grid so
// adversarial inputs keep producing timestamp collisions, the case the
// FIFO tie-break exists for.  Negative and NaN times cannot be encoded
// — the engine rejects them by panicking, which is its documented
// contract, not a fuzz finding.
func runFuzzProgram(data []byte) ([]firing, units.Joules, units.Seconds) {
	e := NewEngine()
	m := e.NewMeter("GPU0", 10)

	log := &firingLog{e: e}
	sched := 0
	// next and typed must be called exactly when the event is handed to
	// the engine, so schedOrder mirrors the engine's internal sequence —
	// including for events scheduled from inside other events.
	next := func() func() {
		id := sched
		sched++
		return func() { log.fired = append(log.fired, firing{schedOrder: id, at: e.Now()}) }
	}
	typed := func(at units.Seconds) {
		e.Schedule(at, log, uint64(sched))
		sched++
	}

	const maxOps = 64
	for i := 0; i+2 < len(data) && i/3 < maxOps; i += 3 {
		op := data[i] % 6
		v := uint16(data[i+1])<<8 | uint16(data[i+2])
		offset := units.Seconds(float64(v%32) * 0.25)
		switch op {
		case 0: // absolute schedule at now+offset
			e.At(e.Now()+offset, next())
		case 1: // relative schedule
			e.After(offset, next())
		case 2: // nested: the event schedules a follow-up when it fires
			cb := next()
			delta := units.Seconds(float64(v%8) * 0.125)
			e.After(offset, func() {
				cb()
				e.After(delta, next())
			})
		case 3: // power step riding on an event
			cb := next()
			watts := units.Watts(v % 300)
			e.After(offset, func() {
				cb()
				m.SetPower(watts)
			})
		case 4: // typed event at now+offset
			typed(e.Now() + offset)
		case 5: // closure that schedules a typed follow-up when it fires
			cb := next()
			delta := units.Seconds(float64(v%8) * 0.125)
			e.After(offset, func() {
				cb()
				typed(e.Now() + delta)
			})
		}
	}
	end := e.Run()
	return log.fired, m.Energy(), end
}

// FuzzEventOrdering throws adversarial schedules at the engine —
// colliding timestamps, zero delays, events scheduled from inside
// events, closure and typed events interleaved — and checks the determinism contract the parallel executor
// builds on: time never goes backwards, same-time events fire in the
// order they were scheduled, Run's end time covers every firing, and
// an identical program replays to the identical firing sequence and
// energy integral.
func FuzzEventOrdering(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{0, 0, 1, 1, 0, 1, 2, 0, 1, 3, 0, 200})            // one tick, every opcode
	f.Add([]byte{0, 0, 8, 0, 0, 8, 1, 0, 8, 2, 0, 8})              // four-way timestamp collision
	f.Add([]byte{2, 0, 0, 2, 0, 0, 2, 0, 0})                       // zero-delay nested cascades
	f.Add([]byte{3, 1, 44, 0, 0, 31, 3, 0, 150, 1, 2, 7, 2, 3, 9}) // power steps between collisions
	f.Add([]byte{4, 0, 8, 0, 0, 8, 4, 0, 8, 5, 0, 8, 1, 0, 8})     // typed and closure events colliding
	f.Add([]byte{5, 0, 0, 4, 0, 0, 2, 0, 0, 5, 0, 0})              // zero-delay cascades of both kinds

	f.Fuzz(func(t *testing.T, data []byte) {
		fired, energy, end := runFuzzProgram(data)

		var last units.Seconds
		for i, fr := range fired {
			if fr.at < last {
				t.Fatalf("firing %d: clock went backwards, %v after %v", i, fr.at, last)
			}
			if i > 0 && fr.at == fired[i-1].at && fr.schedOrder < fired[i-1].schedOrder {
				t.Fatalf("firing %d: same-time events out of scheduling order (%d fired after %d at %v)",
					i, fr.schedOrder, fired[i-1].schedOrder, fr.at)
			}
			last = fr.at
		}
		if end < last {
			t.Fatalf("Run() returned %v, before the last firing at %v", end, last)
		}
		if energy < 0 {
			t.Fatalf("negative energy %v", energy)
		}

		fired2, energy2, end2 := runFuzzProgram(data)
		if len(fired2) != len(fired) || energy2 != energy || end2 != end {
			t.Fatalf("replay diverged: %d firings / %v J / %v vs %d / %v / %v",
				len(fired), energy, end, len(fired2), energy2, end2)
		}
		for i := range fired {
			if fired[i] != fired2[i] {
				t.Fatalf("replay diverged at firing %d: %+v vs %+v", i, fired[i], fired2[i])
			}
		}
	})
}
