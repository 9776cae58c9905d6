package starpu

import (
	"fmt"
	"sync"
)

// RunNumeric executes the numeric bodies (Task.Func) of every submitted
// task on host goroutines, respecting the inferred dependencies.  It is
// the correctness companion of the simulated Run: the same DAG, real
// arithmetic, real parallelism.
//
// parallelism bounds the number of concurrently running tasks (values
// below 1 mean 1).  Tasks without a Func complete immediately.  The
// first task error aborts the run (already-running tasks finish first).
func (rt *Runtime) RunNumeric(parallelism int) error {
	if parallelism < 1 {
		parallelism = 1
	}
	// Private dependency counts: Run() consumes rt's own ndeps fields,
	// so the numeric pass rebuilds the in-degrees from the succ lists.
	indeg := make(map[*Task]int, len(rt.tasks))
	for _, t := range rt.tasks {
		if _, ok := indeg[t]; !ok {
			indeg[t] = 0
		}
		for _, s := range t.Successors() {
			indeg[s]++
		}
	}

	var (
		mu       sync.Mutex
		cond     = sync.NewCond(&mu)
		ready    []*Task
		pending  = len(rt.tasks)
		firstErr error
	)
	for _, t := range rt.tasks {
		if indeg[t] == 0 {
			ready = append(ready, t)
		}
	}

	worker := func() {
		for {
			mu.Lock()
			for len(ready) == 0 && pending > 0 && firstErr == nil {
				cond.Wait()
			}
			if pending == 0 || firstErr != nil {
				mu.Unlock()
				cond.Broadcast()
				return
			}
			t := ready[len(ready)-1]
			ready = ready[:len(ready)-1]
			mu.Unlock()

			var err error
			if t.Func != nil {
				err = t.Func()
			}

			mu.Lock()
			pending--
			if err != nil && firstErr == nil {
				firstErr = fmt.Errorf("starpu: task %q: %w", t.Tag, err)
			}
			for _, s := range t.Successors() {
				indeg[s]--
				if indeg[s] == 0 {
					ready = append(ready, s)
				}
			}
			mu.Unlock()
			cond.Broadcast()
		}
	}

	var wg sync.WaitGroup
	for i := 0; i < parallelism; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			worker()
		}()
	}
	wg.Wait()

	if firstErr != nil {
		return firstErr
	}
	if pending > 0 {
		return fmt.Errorf("starpu: numeric run left %d tasks unexecuted (dependency cycle?)", pending)
	}
	return nil
}
