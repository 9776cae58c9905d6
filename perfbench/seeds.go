package main

import (
	"fmt"

	"repro/internal/core"
)

// jobSeeds hands out the seeds of one run's jobs, warm-up jobs included.
// Each seed is a pure function of the workload seed argument, the
// workload name and the job's ordinal, so the same arguments replay the
// same jobs; a seed already handed out is skipped, so no two jobs of a
// run share a seed, and so no job identity, checkpoint key or dedup key
// repeats and no cache can serve a job from an earlier one.
type jobSeeds struct {
	root     int64
	workload string
	n        int
	used     map[int64]bool
}

func newJobSeeds(root int64, workload string) *jobSeeds {
	return &jobSeeds{root: root, workload: workload, used: map[int64]bool{}}
}

func (s *jobSeeds) next() int64 {
	for {
		seed := core.CellSeed(s.root, fmt.Sprintf("perfbench|%s|job=%d", s.workload, s.n))
		s.n++
		if !s.used[seed] {
			s.used[seed] = true
			return seed
		}
	}
}
