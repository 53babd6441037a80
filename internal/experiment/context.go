package experiment

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"rtdvs/internal/sim"
)

// PartialError is the typed error a sweep driver returns when its
// context ends before every job has completed. It wraps the context's
// error, so errors.Is(err, context.Canceled) and
// errors.Is(err, context.DeadlineExceeded) work as expected. Done counts
// the jobs that finished (and, when checkpointing is on, were journaled)
// before the cancellation landed.
type PartialError struct {
	Done, Total int
	Cause       error
}

// Error implements error.
func (e *PartialError) Error() string {
	return fmt.Sprintf("experiment: sweep cancelled after %d of %d jobs: %v",
		e.Done, e.Total, e.Cause)
}

// Unwrap returns the context error the cancellation traces to.
func (e *PartialError) Unwrap() error { return e.Cause }

// skippable reports whether a worker should treat err as "this job was
// cut short by cancellation" rather than a sweep-fatal failure: the
// pool turns the cancellation into one PartialError after it drains
// instead of surfacing every worker's copy.
func skippable(err error) bool {
	var c *sim.Canceled
	return errors.As(err, &c) ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded)
}

// runPool runs every panel job j with done[j] false on a pool of
// workers (0 means GOMAXPROCS) and sets done[j] once job j succeeds;
// jobs already done (replayed from a journal) are skipped. Each worker
// calls newWorker once, before any job runs, for its private state and
// the job function that uses it.
//
// The job contract: job j is a pure function of (panel config, j) and
// writes only its own slot, so the panel's fold over the slots in j
// order — which runs only after runPool returns nil — is bit-identical
// for any worker count, and identical again when slots are replayed
// from a journal.
//
// The first job error that is not a cancellation fails the panel. When
// ctx ends first, the pool drains without leaking a goroutine and
// returns a *PartialError.
func runPool(ctx context.Context, workers int, m *Metrics, done []bool, newWorker func() (func(j int) error, error)) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	runs := make([]func(int) error, workers)
	for w := range runs {
		run, err := newWorker()
		if err != nil {
			return err
		}
		runs[w] = run
	}
	for _, d := range done {
		if d {
			m.jobReplayed()
		}
	}
	m.jobsPlanned(len(done))

	jobs := make(chan int)
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	for _, run := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				if ctx.Err() != nil {
					continue // drain the channel without doing work
				}
				if err := run(j); err != nil {
					if !skippable(err) {
						mu.Lock()
						if firstErr == nil {
							firstErr = err
						}
						mu.Unlock()
					}
					continue
				}
				done[j] = true
				m.jobDone()
			}
		}()
	}
	// Send the jobs in order until ctx ends; closing jobs lets every
	// worker exit however the panel stops.
	func() {
		defer close(jobs)
		for j := range done {
			if done[j] {
				continue
			}
			select {
			case jobs <- j:
			case <-ctx.Done():
				return
			}
		}
	}()
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	if err := ctx.Err(); err != nil {
		n := 0
		for _, d := range done {
			if d {
				n++
			}
		}
		return &PartialError{Done: n, Total: len(done), Cause: err}
	}
	return nil
}
