// Package runner is the shared concurrent trial engine behind every
// experiment in internal/exp. An experiment expresses its trial loop as
// a set of independent, index-addressed jobs; All executes them on a
// bounded set of workers and returns the results in index order.
//
// Determinism contract: a job must derive all of its randomness from
// the experiment seed and its own index (see rng.Derive) and must not
// share mutable state with other jobs. Under that contract the results
// are bit-identical for every worker count, including 1 — the
// per-figure determinism tests assert exactly this — so parallelism is
// purely a wall-clock optimization, never a statistical one.
package runner

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// defaultWorkers holds the process-wide worker count used by All. Zero
// means "one worker per CPU". cmd/abwsim's -parallel flag and the
// determinism tests set it; everything else should leave it alone.
var defaultWorkers atomic.Int64

// SetWorkers sets the worker count All uses. n <= 0 resets to one
// worker per CPU (GOMAXPROCS).
func SetWorkers(n int) {
	if n < 0 {
		n = 0
	}
	defaultWorkers.Store(int64(n))
}

// Workers reports the worker count All will use.
func Workers() int {
	if n := defaultWorkers.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// defaultProgress, if set, observes every job All runs (see
// SetProgress). Stored as a pointer so the atomic holds a comparable
// type.
var defaultProgress atomic.Pointer[func(done, total int)]

// SetProgress installs a progress callback on All: it is invoked,
// serialized, after every trial with the completed and total counts of
// that experiment's current fan-out. Pass nil to remove it.
// cmd/abwsim's -progress flag is the intended caller.
func SetProgress(fn func(done, total int)) {
	if fn == nil {
		defaultProgress.Store(nil)
		return
	}
	defaultProgress.Store(&fn)
}

// All runs fn(i) for every i in [0, n) on min(Workers(), n) workers
// draining a queue of indices, and returns the n results in index
// order, independent of scheduling. The first error stops the jobs that
// have not started and is returned; the results are nil in that case.
func All[T any](n int, fn func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	var onProgress func(done, total int)
	if cb := defaultProgress.Load(); cb != nil {
		onProgress = *cb
	}
	results := make([]T, n)
	jobs := make(chan int, n) // bounded queue: all indices, workers drain it
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)

	var (
		wg       sync.WaitGroup
		failed   atomic.Bool
		firstErr error // written once, by the job that set failed
		done     int
		progMu   sync.Mutex
	)
	for w := min(Workers(), n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if failed.Load() {
					return
				}
				v, err := fn(i)
				if err != nil {
					if failed.CompareAndSwap(false, true) {
						firstErr = err
					}
					return
				}
				results[i] = v
				if onProgress != nil {
					// Count under the lock so the callback sees a
					// strictly increasing done counter.
					progMu.Lock()
					done++
					onProgress(done, n)
					progMu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return results, nil
}
