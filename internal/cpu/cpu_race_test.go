package cpu

import (
	"sync"
	"testing"

	"repro/internal/units"
)

// TestPackageConcurrentPowerLimit races RAPL cap writes against readers:
// every limit read must be one of the caps written (TDP for the
// uncapped zero), and the derived clock fraction stays in its range.
func TestPackageConcurrentPowerLimit(t *testing.T) {
	p := NewPackage(XeonGold6126(), 0)
	tdp := p.Arch().TDP
	caps := []units.Watts{0, tdp * 0.5, tdp * 0.75, tdp}
	valid := map[units.Watts]bool{tdp: true}
	for _, c := range caps[1:] {
		valid[c] = true
	}

	var writers, readers sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < 2000; i++ {
				if err := p.SetPowerLimit(caps[(i+w)%len(caps)]); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				if l := p.PowerLimit(); !valid[l] {
					t.Errorf("PowerLimit = %v, never written", l)
					return
				}
				if x := p.ClockFraction(); x < 0.25 || x > 1 {
					t.Errorf("ClockFraction = %v outside [0.25, 1]", x)
					return
				}
				_ = p.Uncapped()
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
}
