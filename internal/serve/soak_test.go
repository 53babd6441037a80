package serve

import (
	"bytes"
	"context"
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

// TestSoakSmoke drives a deliberately under-provisioned server with a
// few hundred concurrent requests through the backoff client: every
// request must eventually succeed (the 429 shedding paces the clients
// rather than failing them), the server must shed at least once (the
// load is far beyond its capacity), and the drain afterwards must be
// clean. Scalar, multi-core and batch simulations borrow runner pairs
// from the one pool at once. The whole exercise runs under a wall-clock
// budget so a regression that deadlocks or livelocks the pool fails
// fast.
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
	s := New(Config{SimConcurrency: 2, Workers: 2, QueueDepth: 4, RetryAfter: time.Second, Logf: t.Logf})
	s.Start()
	hs := httptest.NewServer(s.Handler())

	// Count sheds at the transport level, underneath the client's
	// retries.
	var sheds atomic.Int64
	rt := http.DefaultTransport.(*http.Transport).Clone()
	rt.MaxIdleConnsPerHost = allClients
	countingClient := &http.Client{Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
		resp, err := rt.RoundTrip(r)
		if err == nil && resp.StatusCode == http.StatusTooManyRequests {
			sheds.Add(1)
		}
		return resp, err
	})}

	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()

	// Hold every simulate slot through the first wave of arrivals so
	// shedding happens deterministically even on a machine fast enough
	// to drain each simulation before the next connection lands; the
	// retry clients absorb the 429s and succeed once the slots free up.
	s.simSem <- struct{}{}
	s.simSem <- struct{}{}
	slotHold := time.AfterFunc(300*time.Millisecond, func() { <-s.simSem; <-s.simSem })
	defer slotHold.Stop()

	var wg sync.WaitGroup
	errs := make(chan error, allClients)
	client := func(seed int64) *Client {
		c := NewClient(hs.URL, seed)
		c.HTTP = countingClient
		c.MaxAttempts = 40
		c.BaseDelay = 2 * time.Millisecond
		c.MaxDelay = 50 * time.Millisecond
		return c
	}
	for i := 0; i < simClients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := client(int64(i))
			// Deep enough that simulations overlap and contend for the
			// two slots; still only ~1ms of work each.
			_, err := c.Simulate(ctx, SimulateRequest{
				Tasks:   []task.Task{{Period: 8, WCET: 3}, {Period: 10, WCET: 3}},
				Policy:  "ccEDF",
				Horizon: 30000,
				Seed:    int64(i),
			})
			if err != nil {
				errs <- err
			}
		}(i)
	}
	for i := 0; i < multiClients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := SimulateRequest{Tasks: multiTasks(), Horizon: 2000, Seed: int64(i), Cores: 2}
			if i%2 == 1 {
				req.Policy, req.Placement = "gangCCEDF", "global"
			}
			if _, err := client(int64(500+i)).SimulateMulti(ctx, req); err != nil {
				errs <- err
			}
		}(i)
	}
	for i := 0; i < batchClients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			items, err := client(int64(700+i)).SimulateBatch(ctx, SimulateBatchRequest{Items: []SimulateRequest{
				{Tasks: paperTasks(), Policy: "ccEDF", Exec: "uniform", Horizon: 2000, Seed: int64(i)},
				{Tasks: multiTasks(), Horizon: 2000, Cores: 4},
				{Tasks: multiTasks(), Policy: "gangLAEDF", Horizon: 2000, Cores: 2, Placement: "global"},
			}})
			if err != nil {
				errs <- err
				return
			}
			for j, it := range items {
				if it.Error != "" {
					errs <- fmt.Errorf("batch %d item %d: %s", i, j, it.Error)
				}
			}
		}(i)
	}
	for i := 0; i < sweepClients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := client(int64(1000 + i))
			c.MaxAttempts = 60
			id, err := c.StartSweep(ctx, SweepRequest{
				NTasks:       3,
				Sets:         2,
				Utilizations: []float64{0.4, 0.8},
				Seed:         int64(i),
				Horizon:      2000,
			})
			if err != nil {
				errs <- err
				return
			}
			st, err := c.WaitJob(ctx, id, 5*time.Millisecond)
			if err != nil {
				errs <- err
				return
			}
			if st.Status != JobDone {
				errs <- &StatusError{Status: 0, Body: "job " + id + " ended " + string(st.Status) + ": " + st.Error}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("soak request failed: %v", err)
	}
	if sheds.Load() == 0 {
		t.Error("no request was ever shed with 429; the load test is not exercising backpressure")
	}
	// The server's own shed counter must agree exactly with the 429s the
	// clients observed on the wire — no double counting, none missed.
	if got := s.metrics.shed.Value(); got != float64(sheds.Load()) {
		t.Errorf("server shed counter = %v, clients saw %d 429s", got, sheds.Load())
	}
	t.Logf("soak: %d requests, %d sheds absorbed by retries", allClients, sheds.Load())

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
	s := New(Config{SimConcurrency: 1, SimTimeout: 50 * time.Millisecond, MaxBatchItems: 16, Logf: func(string, ...any) {}})
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
