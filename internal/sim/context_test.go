package sim

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"rtdvs/internal/core"
	"rtdvs/internal/fault"
	"rtdvs/internal/machine"
	"rtdvs/internal/sched"
	"rtdvs/internal/task"
)

// longRunConfig builds a configuration whose event count is large enough
// that a run takes real wall time (many short periods over a long
// horizon), so a cancellation mid-run is observable.
func longRunConfig(t *testing.T, horizon float64) Config {
	t.Helper()
	ts, err := task.NewSet(
		task.Task{Period: 1, WCET: 0.2},
		task.Task{Period: 2, WCET: 0.3},
		task.Task{Period: 3, WCET: 0.4},
	)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.ByName("ccEDF")
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Tasks:   ts,
		Machine: machine.Machine1(),
		Policy:  p,
		Horizon: horizon,
	}
}

// A background (non-cancellable) context must change nothing: the run is
// bit-identical to plain Run.
func TestRunContextBackgroundMatchesRun(t *testing.T) {
	for _, mk := range runnerTestConfigs(t) {
		want, err := Run(mk())
		if err != nil {
			t.Fatal(err)
		}
		got, err := RunContext(context.Background(), mk())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(normalizeResult(want), normalizeResult(got)) {
			t.Fatalf("RunContext(Background) diverged from Run for %s", want.Policy)
		}
	}
}

// An already-expired context must stop the run before any simulated work.
func TestRunContextExpiredContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunContext(ctx, longRunConfig(t, 1e6))
	if res != nil {
		t.Fatalf("got result %+v from cancelled context", res)
	}
	var c *Canceled
	if !errors.As(err, &c) {
		t.Fatalf("error %T %v, want *Canceled", err, err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("errors.Is(err, context.Canceled) false for %v", err)
	}
	if c.At != 0 {
		t.Errorf("cancelled before the first event but At = %g", c.At)
	}
	if c.Partial == nil || c.Partial.CyclesDone != 0 {
		t.Errorf("partial result %+v, want zero work", c.Partial)
	}
}

// A deadline mid-run must stop the event loop promptly — well before the
// horizon — and return the typed partial result.
func TestRunContextDeadlineMidRun(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := RunContext(ctx, longRunConfig(t, 1e9))
	elapsed := time.Since(start)

	var c *Canceled
	if !errors.As(err, &c) {
		t.Fatalf("error %T %v, want *Canceled", err, err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("errors.Is(err, DeadlineExceeded) false for %v", err)
	}
	// The poll interval is a 64-event batch costing microseconds; three
	// seconds of slack means a hang, not scheduler jitter.
	if elapsed > 3*time.Second {
		t.Fatalf("cancelled run took %v to return", elapsed)
	}
	if c.At <= 0 || c.At >= 1e9 {
		t.Errorf("partial progress At = %g, want inside (0, horizon)", c.At)
	}
	if c.Partial.CyclesDone <= 0 {
		t.Errorf("partial result reports no work: %+v", c.Partial)
	}
	if c.Partial.TotalEnergy != c.Partial.ExecEnergy+c.Partial.IdleEnergy {
		t.Errorf("partial result energy not folded: %+v", c.Partial)
	}
}

// A Runner that just failed — cancelled mid-run or errored on an
// invariant violation — must be as good as new on the next Run: results
// DeepEqual those of a fresh Runner.
func TestRunnerReuseAfterFailure(t *testing.T) {
	configs := runnerTestConfigs(t)
	runner := NewRunner()

	poison := []func(t *testing.T){
		func(t *testing.T) {
			// Cancelled mid-run: the event loop stops with a live
			// release order and ready set, partial per-task state, and
			// a half-filled result.
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if _, err := runner.RunContext(ctx, longRunConfig(t, 1e6)); err == nil {
				t.Fatal("cancelled run succeeded")
			}
		},
		func(t *testing.T) {
			// Invariant violation: the run errors after simulating for a
			// while under a policy that fabricates operating points.
			cfg := invariantConfig(t, &offGridPolicy{})
			if _, err := runner.Run(cfg); err == nil {
				t.Fatal("off-grid policy run succeeded")
			}
		},
		func(t *testing.T) {
			// Validation failure at entry (nil machine).
			if _, err := runner.Run(Config{Tasks: task.PaperExample(), Policy: mustPolicy(t, "none")}); err == nil {
				t.Fatal("nil-machine run succeeded")
			}
		},
	}

	for pi, bad := range poison {
		bad(t)
		for ci, mk := range configs {
			want, err := Run(mk())
			if err != nil {
				t.Fatalf("poison %d cfg %d: fresh run: %v", pi, ci, err)
			}
			got, err := runner.Run(mk())
			if err != nil {
				t.Fatalf("poison %d cfg %d: reused run after failure: %v", pi, ci, err)
			}
			if !reflect.DeepEqual(normalizeResult(want), normalizeResult(got)) {
				t.Errorf("poison %d cfg %d (%s): runner poisoned by failed run\nfresh:  %+v\nreused: %+v",
					pi, ci, want.Policy, want, got)
			}
			// Re-poison between configs only for the first few to keep the
			// test fast; one error→success transition per config suffices.
			if ci >= 2 {
				break
			}
			bad(t)
		}
	}

	// Finally, the full reuse matrix after a failure storm.
	for _, bad := range poison {
		bad(t)
	}
	for ci, mk := range configs {
		want, err := Run(mk())
		if err != nil {
			t.Fatal(err)
		}
		got, err := runner.Run(mk())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(normalizeResult(want), normalizeResult(got)) {
			t.Errorf("cfg %d (%s): reuse diverged after failure storm", ci, want.Policy)
		}
	}
}

// Cancellation must compose with fault injection: the partial result
// carries the fault record accumulated so far.
func TestRunContextCancelKeepsFaultRecord(t *testing.T) {
	cfg := longRunConfig(t, 1e6)
	cfg.Faults = fault.MustNew(fault.Plan{Seed: 7, OverrunProb: 0.2, OverrunFactor: 1.2})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
		close(done)
	}()
	_, err := RunContext(ctx, cfg)
	<-done
	var c *Canceled
	if !errors.As(err, &c) {
		// The run may legitimately finish before the cancel lands on a
		// fast machine; only a non-Canceled *error* is a failure.
		if err != nil {
			t.Fatalf("unexpected error %v", err)
		}
		t.Skip("run finished before cancellation landed")
	}
	if c.Partial.Faults == nil {
		t.Error("partial result dropped the fault record")
	}
}

// TestStalledRunEnds corrupts the release order at the first release:
// its head position names task 1, whose own position is 1, under a key
// of 10.25, before any real deadline. At 10.25 the due prefix fires task
// 1, which is not due, and its key goes to its own position, so the head
// keeps its key. The next release time stays due, and the loop
// re-processes one instant forever unless its progress guard ends the
// run. The run is
// under RM, so the ready set is the static order and only the release
// order is corrupted. Plain and cancellable runs share the guard. The
// test's own deadline turns a hang into a failure.
func TestStalledRunEnds(t *testing.T) {
	ts, err := task.NewSet(
		task.Task{Period: 10.5, WCET: 2},
		task.Task{Period: 15, WCET: 3},
		task.Task{Period: 42, WCET: 5},
	)
	if err != nil {
		t.Fatal(err)
	}
	for _, cancellable := range []bool{false, true} {
		cfg := Config{Tasks: ts, Machine: machine.Machine0(), Horizon: 100,
			Policy: &corruptingPolicy{kind: sched.RM, corrupt: func(s *simulator) {
				order, keys := s.q.Tasks()
				order[0], keys[0] = order[1], 10.25
			}}}
		done := make(chan error, 1)
		go func() {
			if !cancellable {
				_, err := Run(cfg)
				done <- err
				return
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			_, err := RunContext(ctx, cfg)
			done <- err
		}()
		select {
		case err := <-done:
			var st *Stalled
			if !errors.As(err, &st) {
				t.Fatalf("cancellable=%v: error %T %v, want *Stalled", cancellable, err, err)
			}
			if st.At < 10.25 || st.At > 10.25 || st.Events <= 0 {
				t.Errorf("cancellable=%v: stalled at t=%g after %d events, want t=10.25", cancellable, st.At, st.Events)
			}
			if st.Violation == nil || !strings.Contains(err.Error(), "next release at 10.25") {
				t.Errorf("cancellable=%v: %v does not carry the checker's violation", cancellable, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("cancellable=%v: the run did not end; simulated time stood still and the loop kept spinning", cancellable)
		}
	}
}
