package experiment

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"rtdvs/internal/machine"
)

func assertSweepsEqual(t *testing.T, want, got *Sweep) {
	t.Helper()
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("sweeps differ:\nwant %+v\ngot  %+v", want, got)
	}
}

// smallConfig is a sweep big enough to span several jobs but quick
// enough for tests.
func smallConfig() Config {
	return Config{
		Policies:     []string{"none", "ccEDF"},
		NTasks:       3,
		Utilizations: []float64{0.3, 0.6, 0.9},
		Sets:         3,
		Seed:         11,
		Horizon:      200,
	}
}

// bigConfig is a sweep that takes long enough to be cancelled mid-run.
func bigConfig() Config {
	return Config{
		NTasks:  8,
		Sets:    40,
		Seed:    5,
		Horizon: 4000,
	}
}

func checkGoroutines(t *testing.T, before int) {
	t.Helper()
	// Allow the runtime a moment to retire exiting goroutines.
	for i := 0; i < 100; i++ {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}

// An expired context stops the sweep before any job runs, drains the
// pool, and leaks nothing.
func TestRunContextExpired(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sw, err := RunContext(ctx, smallConfig())
	if sw != nil {
		t.Fatalf("got sweep from cancelled context")
	}
	var pe *PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("error %T %v, want *PartialError", err, err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("errors.Is(err, context.Canceled) false for %v", err)
	}
	if pe.Done != 0 || pe.Total != 9 {
		t.Errorf("partial error %+v, want 0 of 9 jobs", pe)
	}
	checkGoroutines(t, before)
}

// A deadline mid-sweep returns promptly with partial progress and no
// leaked workers.
func TestRunContextDeadlineMidSweep(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := RunContext(ctx, bigConfig())
	elapsed := time.Since(start)

	var pe *PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("error %T %v, want *PartialError", err, err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("errors.Is(DeadlineExceeded) false for %v", err)
	}
	if pe.Done >= pe.Total {
		t.Errorf("sweep claims completion (%d of %d) despite the deadline", pe.Done, pe.Total)
	}
	// In-flight simulations stop at the next 64-event check; generous
	// slack to absorb scheduler noise under -race.
	if elapsed > 10*time.Second {
		t.Fatalf("cancelled sweep took %v to drain", elapsed)
	}
	checkGoroutines(t, before)
}

// errCountdown is a context whose Err turns to Canceled on its n-th
// call (never when n is 0) and that counts its calls. Its Done channel
// never closes, so the cancellation reaches a panel only through the
// pool's check before each job and the simulator's periodic poll: at one
// worker the sequence of calls, and so the job the cancellation lands
// in, is the same on every host.
type errCountdown struct {
	context.Context
	done     chan struct{}
	n, calls int
}

func newErrCountdown(n int) *errCountdown {
	return &errCountdown{Context: context.Background(), done: make(chan struct{}), n: n}
}

func (c *errCountdown) Done() <-chan struct{} { return c.done }

func (c *errCountdown) Err() error {
	c.calls++
	if c.n > 0 && c.calls >= c.n {
		return context.Canceled
	}
	return nil
}

// panelEntry is one panel entry point on a small grid of total jobs,
// run at one worker and, when path is set, journaled there.
type panelEntry struct {
	name  string
	total int
	run   func(ctx context.Context, path string, resume bool) (any, error)
}

func panelEntries() []panelEntry {
	o := func(path string, resume bool) Options {
		return Options{Sets: 2, Seed: 3, Points: []float64{0.3, 0.6}, Workers: 1, Checkpoint: path, Resume: resume}
	}
	return []panelEntry{
		{"RunContext", 9, func(ctx context.Context, path string, resume bool) (any, error) {
			cfg := smallConfig()
			cfg.Workers, cfg.Checkpoint, cfg.Resume = 1, path, resume
			return RunContext(ctx, cfg)
		}},
		{"Figure9", 4, func(ctx context.Context, path string, resume bool) (any, error) {
			return Figure9(ctx, 5, o(path, resume))
		}},
		{"Figure10", 4, func(ctx context.Context, path string, resume bool) (any, error) {
			return Figure10(ctx, 0.1, o(path, resume))
		}},
		{"Figure11", 4, func(ctx context.Context, path string, resume bool) (any, error) {
			return Figure11(ctx, machine.Machine2(), o(path, resume))
		}},
		{"Figure12", 4, func(ctx context.Context, path string, resume bool) (any, error) {
			return Figure12(ctx, 0.5, o(path, resume))
		}},
		{"Figure13", 4, func(ctx context.Context, path string, resume bool) (any, error) {
			return Figure13(ctx, o(path, resume))
		}},
		{"Multicore", 4, func(ctx context.Context, path string, resume bool) (any, error) {
			return Multicore(ctx, 2, o(path, resume))
		}},
		{"Figure16", 4, func(ctx context.Context, path string, resume bool) (any, error) {
			return Figure16(ctx, o(path, resume))
		}},
		{"Figure17", 4, func(ctx context.Context, path string, resume bool) (any, error) {
			return Figure17(ctx, o(path, resume))
		}},
		{"Robustness", 4, func(ctx context.Context, _ string, _ bool) (any, error) {
			return Robustness(ctx, RobustnessConfig{Rates: []float64{0, 0.2}, NTasks: 4, Sets: 2, Seed: 3, Workers: 1})
		}},
		{"Grid", 4, func(ctx context.Context, _ string, _ bool) (any, error) {
			return Grid(ctx, GridConfig{Policies: []string{"fbEDF"}, Sets: 1, Seed: 3, Workers: 1})
		}},
	}
}

// wantPartial asserts that err is a *PartialError wrapping
// context.Canceled and returns it.
func wantPartial(t *testing.T, err error) *PartialError {
	t.Helper()
	var pe *PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("error %T %v, want *PartialError", err, err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("errors.Is(err, context.Canceled) false for %v", err)
	}
	return pe
}

// Every panel entry point cancels the same way, through the one pool:
// an expired context schedules no job, and a cancellation mid-sweep
// keeps the jobs finished before it. Both return a *PartialError that
// counts them, and neither leaks a worker.
func TestPanelsCancel(t *testing.T) {
	for _, p := range panelEntries() {
		t.Run(p.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			res, err := p.run(ctx, "", false)
			if res != nil && !reflect.ValueOf(res).IsNil() {
				t.Errorf("got a result from a cancelled context: %+v", res)
			}
			pe := wantPartial(t, err)
			if pe.Done != 0 || pe.Total != p.total {
				t.Errorf("expired context: %+v, want 0 of %d jobs", pe, p.total)
			}
			if want := fmt.Sprintf("after 0 of %d jobs", p.total); !strings.Contains(pe.Error(), want) {
				t.Errorf("Error() = %q, want it to name %q", pe.Error(), want)
			}
			checkGoroutines(t, before)

			// Cancel on the middle one of the context checks a complete
			// run makes.
			count := newErrCountdown(0)
			if _, err := p.run(count, "", false); err != nil {
				t.Fatal(err)
			}
			_, err = p.run(newErrCountdown(count.calls/2), "", false)
			if pe := wantPartial(t, err); pe.Done <= 0 || pe.Done >= pe.Total {
				t.Errorf("mid-sweep cancel after %d of %d context checks: %+v, want 0 < Done < Total",
					count.calls/2, count.calls, pe)
			}
			checkGoroutines(t, before)
		})
	}
}
