package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rtdvs/internal/task"
)

// TestSoakSmoke drives a deliberately under-provisioned server with two
// waves of a few hundred concurrent callers, each making one attempt:
// every answer must be a success or a 429 carrying the one-second
// Retry-After hint (shedding refuses work, it never breaks it), the
// server must shed at least once, every sweep it accepts must finish,
// and the drain afterwards must be clean. In the second wave scalar,
// multi-core and batch simulations borrow runner pairs from the one
// pool at once. Last, one call of each kind alone must succeed. The
// whole exercise runs under a wall-clock budget so a regression that
// deadlocks or livelocks the pool fails fast.
func TestSoakSmoke(t *testing.T) {
	const (
		simClients   = 180
		multiClients = 24
		batchClients = 24
		sweepClients = 24
		allClients   = simClients + multiClients + batchClients + sweepClients
		budget       = 60 * time.Second
	)
	before := runtime.NumGoroutine()

	// Tiny capacity relative to the offered load forces the 429 path.
	s := New(Config{SimConcurrency: 2, Workers: 2, QueueDepth: 4, Logf: t.Logf})
	s.Start()
	hs := httptest.NewServer(s.Handler())

	// Count sheds on the wire and check each one's hint.
	var sheds atomic.Int64
	rt := http.DefaultTransport.(*http.Transport).Clone()
	rt.MaxIdleConnsPerHost = allClients
	c := &Client{Base: hs.URL, HTTP: &http.Client{Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
		resp, err := rt.RoundTrip(r)
		if err == nil && resp.StatusCode == http.StatusTooManyRequests {
			sheds.Add(1)
			if ra := resp.Header.Get("Retry-After"); ra != "1" {
				t.Errorf("429 from %s carries Retry-After %q, want \"1\"", r.URL.Path, ra)
			}
		}
		return resp, err
	})}}

	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()

	// The four request kinds, one attempt each. A sweep call also polls
	// the job it started until the job ends, and requires it done.
	kinds := []struct {
		name    string
		callers int
		call    func(i int) error
	}{
		{"simulate", simClients, func(i int) error {
			// Deep enough that simulations overlap and contend for the
			// two slots; still only ~1ms of work each.
			_, err := c.Simulate(ctx, SimulateRequest{
				Tasks:   []task.Task{{Period: 8, WCET: 3}, {Period: 10, WCET: 3}},
				Policy:  "ccEDF",
				Horizon: 30000,
				Seed:    int64(i),
			})
			return err
		}},
		{"multi", multiClients, func(i int) error {
			req := SimulateRequest{Tasks: multiTasks(), Horizon: 2000, Seed: int64(i), Cores: 2}
			if i%2 == 1 {
				req.Policy, req.Placement = "gangCCEDF", "global"
			}
			_, err := c.SimulateMulti(ctx, req)
			return err
		}},
		{"batch", batchClients, func(i int) error {
			items, err := c.SimulateBatch(ctx, SimulateBatchRequest{Items: []SimulateRequest{
				{Tasks: paperTasks(), Policy: "ccEDF", Exec: "uniform", Horizon: 2000, Seed: int64(i)},
				{Tasks: multiTasks(), Horizon: 2000, Cores: 4},
				{Tasks: multiTasks(), Policy: "gangLAEDF", Horizon: 2000, Cores: 2, Placement: "global"},
			}})
			if err != nil {
				return err
			}
			for j, it := range items {
				if it.Error != "" {
					return fmt.Errorf("item %d: %s", j, it.Error)
				}
			}
			return nil
		}},
		{"sweep", sweepClients, func(i int) error {
			id, err := c.StartSweep(ctx, SweepRequest{
				NTasks:       3,
				Sets:         2,
				Utilizations: []float64{0.4, 0.8},
				Seed:         int64(i),
				Horizon:      2000,
			})
			if err != nil {
				return err
			}
			st, err := c.WaitJob(ctx, id, 5*time.Millisecond)
			if err != nil {
				return err
			}
			if st.Status != JobDone {
				return fmt.Errorf("job %s ended %s: %s", id, st.Status, st.Error)
			}
			return nil
		}},
	}

	// wave starts every caller at once and returns how many were served.
	wave := func() int64 {
		var wg sync.WaitGroup
		var served atomic.Int64
		for _, kind := range kinds {
			for i := 0; i < kind.callers; i++ {
				wg.Add(1)
				go func(name string, call func(int) error, i int) {
					defer wg.Done()
					var se *StatusError
					switch err := call(i); {
					case err == nil:
						served.Add(1)
					case errors.As(err, &se) && se.Status == http.StatusTooManyRequests:
					default:
						t.Errorf("%s caller %d: %v", name, i, err)
					}
				}(kind.name, kind.call, i)
			}
		}
		wg.Wait()
		return served.Load()
	}

	// Hold every simulate slot through the first wave of arrivals so
	// shedding happens deterministically even on a machine fast enough
	// to drain each simulation before the next connection lands.
	s.simSem <- struct{}{}
	s.simSem <- struct{}{}
	released := make(chan struct{})
	slotHold := time.AfterFunc(300*time.Millisecond, func() { <-s.simSem; <-s.simSem; close(released) })
	defer slotHold.Stop()
	served1 := wave()
	if sheds.Load() == 0 {
		t.Error("no request was ever shed with 429; the load test is not exercising backpressure")
	}
	select {
	case <-released:
	case <-ctx.Done():
		t.Fatal("slot hold never released")
	}
	served2 := wave()

	// Every accepted sweep is done and nothing holds capacity, so one
	// call of each kind on its own must succeed.
	for _, kind := range kinds {
		if err := kind.call(0); err != nil {
			t.Errorf("lone %s call: %v", kind.name, err)
		}
	}

	// The server's own shed counter must agree exactly with the 429s on
	// the wire — no double counting, none missed.
	if got := s.metrics.shed.Value(); got != float64(sheds.Load()) {
		t.Errorf("server shed counter = %v, the wire saw %d 429s", got, sheds.Load())
	}
	t.Logf("soak: two waves of %d calls, %d and %d served, %d shed", allClients, served1, served2, sheds.Load())

	hs.Close()
	sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer scancel()
	if err := s.Shutdown(sctx); err != nil {
		t.Fatalf("drain after soak: %v", err)
	}
	rt.CloseIdleConnections()
	for i := 0; i < 200; i++ {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked after soak: %d before, %d after", before, runtime.NumGoroutine())
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// FuzzSimulateRequest asserts that the simulate handler — decode,
// validate and run on a pooled runner pair, for both engines — never
// panics and answers every body with 200, 400 or 504. The time limit
// bounds adversarial inputs (e.g. near-infinite horizons) via the
// cooperative cancellation path.
func FuzzSimulateRequest(f *testing.F) {
	seeds := []string{
		`{"tasks":[{"period":8,"wcet":3}]}`,
		`{"tasks":[{"period":8,"wcet":3},{"period":10,"wcet":3}],"policy":"laEDF","exec":"c=0.9","horizon":100}`,
		`{"tasks":[{"period":1e308,"wcet":1e308}],"horizon":1e308}`,
		`{"tasks":[{"period":8,"wcet":3}],"machineSpec":{"points":[{"freq":1,"voltage":-2}]}}`,
		`{"tasks":[{"period":8,"wcet":3}],"idleLevel":2}`,
		`{"tasks":[{"period":8,"wcet":3}],"bogus":true}`,
		`{"tasks":[{"period":8,"wcet":3},{"period":10,"wcet":3}],"cores":2,"exec":"beta=2,5","overhead":true}`,
		`{"tasks":[{"period":8,"wcet":3},{"period":10,"wcet":3}],"cores":3,"placement":"global","policy":"gangLAEDF"}`,
		`[]`,
		`{`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	s := fuzzServer(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		rec := httptest.NewRecorder()
		s.handleSimulate(rec, httptest.NewRequest("POST", "/v1/simulate", bytes.NewReader(data)))
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusGatewayTimeout:
		default:
			t.Fatalf("body %q: status %d: %s", data, rec.Code, rec.Body)
		}
	})
}

// fuzzServer is the server the handler fuzz targets call into directly,
// bypassing the panic-recovery middleware so a crash fails the target.
func fuzzServer(f *testing.F) *Server {
	s := New(Config{SimConcurrency: 1, SimTimeout: 50 * time.Millisecond, Logf: func(string, ...any) {}})
	f.Cleanup(func() { s.Shutdown(context.Background()) })
	return s
}

// The strict decoder itself must reject every seed that is not a clean
// JSON object.
func TestDecodeStrictRejectsNonObjects(t *testing.T) {
	for _, bad := range []string{`[]`, `"x"`, `1`, `{} {}`, `{"tasks":[]} null`} {
		var req SimulateRequest
		if err := decodeStrict([]byte(bad), &req); err == nil && strings.TrimSpace(bad) != "{}" {
			// Arrays/scalars fail to unmarshal into a struct; doubled
			// objects trip the trailing-data check.
			t.Errorf("decodeStrict(%q) accepted", bad)
		}
	}
}
