// Worker supervision: spawn N capworker processes, respawn the ones
// that die (with backoff), report every reaped pid to the coordinator
// so leases release immediately, and terminate the fleet gracefully —
// SIGTERM, a grace period, then SIGKILL.
package sweepd

import (
	"errors"
	"fmt"
	"os/exec"
	"sync"
	"syscall"
	"time"

	"context"
)

// SupervisorConfig tunes a Supervisor.
type SupervisorConfig struct {
	// Workers is the fleet size.
	Workers int
	// Spawn builds the command for one worker slot.  The id is unique
	// per spawned process (slot plus generation), so a respawn never
	// collides with its dead predecessor's lease-holder identity.
	Spawn func(slot int, id string) *exec.Cmd
	// OnExit is called with the pid of every reaped worker process
	// (wire to Coordinator.WorkerExited).
	OnExit func(pid int)
	// RespawnBackoff paces respawns of a dying slot; defaults to 500ms.
	RespawnBackoff time.Duration
	// Grace is how long a SIGTERM'd worker gets before SIGKILL;
	// defaults to 5s.
	Grace time.Duration
	// Logf receives operational log lines; nil discards them.
	Logf func(format string, args ...any)
}

func (c SupervisorConfig) withDefaults() SupervisorConfig {
	if c.RespawnBackoff <= 0 {
		c.RespawnBackoff = 500 * time.Millisecond
	}
	if c.Grace <= 0 {
		c.Grace = 5 * time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Supervisor keeps a fleet of worker processes alive.
type Supervisor struct {
	cfg SupervisorConfig

	mu    sync.Mutex
	procs map[int]*exec.Cmd // live process per slot
}

// NewSupervisor builds a supervisor; Run drives it.
func NewSupervisor(cfg SupervisorConfig) (*Supervisor, error) {
	if cfg.Workers <= 0 {
		return nil, errors.New("sweepd: supervisor needs workers > 0")
	}
	if cfg.Spawn == nil {
		return nil, errors.New("sweepd: supervisor needs a Spawn function")
	}
	return &Supervisor{cfg: cfg.withDefaults(), procs: make(map[int]*exec.Cmd)}, nil
}

// Run spawns the fleet and keeps every slot populated until the
// context is cancelled; it returns after all children are reaped.
func (s *Supervisor) Run(ctx context.Context) {
	var wg sync.WaitGroup
	for slot := 0; slot < s.cfg.Workers; slot++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			s.runSlot(ctx, slot)
		}(slot)
	}
	wg.Wait()
}

// runSlot keeps one worker slot alive, respawning with a fresh
// identity each generation.
func (s *Supervisor) runSlot(ctx context.Context, slot int) {
	for gen := 0; ctx.Err() == nil; gen++ {
		id := fmt.Sprintf("w%d", slot)
		if gen > 0 {
			id = fmt.Sprintf("w%d.%d", slot, gen)
		}
		cmd := s.cfg.Spawn(slot, id)
		if err := cmd.Start(); err != nil {
			s.cfg.Logf("sweepd: slot %d: spawn: %v", slot, err)
			if !sleep(ctx, s.cfg.RespawnBackoff) {
				return
			}
			continue
		}
		pid := cmd.Process.Pid
		s.cfg.Logf("sweepd: slot %d: worker %s running (pid %d)", slot, id, pid)
		s.mu.Lock()
		s.procs[slot] = cmd
		s.mu.Unlock()

		done := make(chan error, 1)
		go func() { done <- cmd.Wait() }()
		var err error
		select {
		case err = <-done:
		case <-ctx.Done():
			// Graceful drain: SIGTERM, grace period, SIGKILL.
			_ = cmd.Process.Signal(syscall.SIGTERM)
			select {
			case err = <-done:
			case <-time.After(s.cfg.Grace):
				_ = cmd.Process.Kill()
				err = <-done
			}
		}
		s.mu.Lock()
		delete(s.procs, slot)
		s.mu.Unlock()
		if s.cfg.OnExit != nil {
			s.cfg.OnExit(pid)
		}
		if ctx.Err() != nil {
			return
		}
		s.cfg.Logf("sweepd: slot %d: worker %s (pid %d) exited: %v — respawning", slot, id, pid, err)
		if !sleep(ctx, s.cfg.RespawnBackoff) {
			return
		}
	}
}
