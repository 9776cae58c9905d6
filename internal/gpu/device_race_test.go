package gpu

import (
	"sync"
	"testing"

	"repro/internal/units"
)

// TestDeviceConcurrentPowerState races cap writes, throttle windows and
// a board dropout against readers.  Every effective limit a reader sees
// must be min(cap or TDP, throttle) for some written cap and throttle,
// every configured limit a written cap, and a dead board never comes
// back.  Under -race it also checks the snapshot's publication.
func TestDeviceConcurrentPowerState(t *testing.T) {
	d := NewDevice(A100SXM4(), 0)
	arch := d.Arch()
	caps := []units.Watts{0, arch.MinPower + 20, arch.MinPower + 80, arch.TDP}
	throttles := []units.Watts{0, arch.MinPower, arch.MinPower + 50}

	valid := map[units.Watts]bool{}
	configured := map[units.Watts]bool{}
	for _, c := range caps {
		limit := c
		if limit == 0 {
			limit = arch.TDP
		}
		configured[limit] = true
		for _, th := range throttles {
			l := limit
			if th > 0 && th < l {
				l = th
			}
			valid[l] = true
		}
	}

	const writes = 2000
	var writers, readers sync.WaitGroup
	done := make(chan struct{})
	writers.Add(3)
	go func() {
		defer writers.Done()
		for i := 0; i < writes; i++ {
			if err := d.SetPowerLimit(caps[i%len(caps)]); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer writers.Done()
		for i := 0; i < writes; i++ {
			if th := throttles[i%len(throttles)]; th == 0 {
				d.ClearThrottle()
			} else {
				d.SetThrottle(th)
			}
		}
	}()
	go func() {
		defer writers.Done()
		d.MarkDead()
	}()
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			sawDead := false
			for {
				if l := d.PowerLimit(); !valid[l] {
					t.Errorf("PowerLimit = %v, which no write sequence yields", l)
					return
				}
				if c := d.ConfiguredLimit(); !configured[c] {
					t.Errorf("ConfiguredLimit = %v, never written", c)
					return
				}
				alive := d.Alive()
				if sawDead && alive {
					t.Error("device came back to life")
					return
				}
				sawDead = sawDead || !alive
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	writers.Wait()
	close(done)
	readers.Wait()
	// No write was lost: the final snapshot holds each writer's last
	// value.
	lastCap := caps[(writes-1)%len(caps)]
	if lastCap == 0 {
		lastCap = arch.TDP
	}
	if got := d.ConfiguredLimit(); got != lastCap {
		t.Errorf("final ConfiguredLimit = %v, want the last cap written, %v", got, lastCap)
	}
	if got, want := d.Throttled(), throttles[(writes-1)%len(throttles)] > 0; got != want {
		t.Errorf("final Throttled = %v, want %v", got, want)
	}
	if d.Alive() {
		t.Error("MarkDead lost under concurrent writes")
	}
}

// TestDeviceConcurrentWritesNotLost starts a cap writer and a throttle
// writer together, round after round, and requires the snapshot left
// behind to hold both writers' last values: a writer that published a
// copy of a stale snapshot would silently undo the other's write.
func TestDeviceConcurrentWritesNotLost(t *testing.T) {
	d := NewDevice(A100SXM4(), 0)
	arch := d.Arch()
	for round := 0; round < 500; round++ {
		cap := arch.MinPower + units.Watts(round%50)
		throttle := arch.MinPower + units.Watts(round%30)
		start := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < 20; i++ {
				if err := d.SetPowerLimit(cap + units.Watts(20-i)); err != nil {
					t.Error(err)
					return
				}
			}
			_ = d.SetPowerLimit(cap)
		}()
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < 20; i++ {
				d.SetThrottle(throttle + units.Watts(20-i))
			}
			d.SetThrottle(throttle)
		}()
		close(start)
		wg.Wait()
		s := d.state.Load()
		if s.cap != cap || s.throttle != throttle {
			t.Fatalf("round %d: snapshot holds cap %v, throttle %v; last writes were %v, %v",
				round, s.cap, s.throttle, cap, throttle)
		}
	}
}
