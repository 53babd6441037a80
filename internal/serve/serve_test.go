package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"rtdvs/internal/experiment"
	"rtdvs/internal/sim"
	"rtdvs/internal/task"
)

// paperTasks is the Table 2 example set as request JSON.
func paperTasks() []task.Task {
	return []task.Task{
		{Period: 8, WCET: 3},
		{Period: 10, WCET: 3},
		{Period: 14, WCET: 1},
	}
}

// newTestServer builds, starts, and tears down a server around a test.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	s := New(cfg)
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s, ts
}

func postJSON(t *testing.T, url string, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeBody[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return v
}

// The simulate endpoint must agree exactly with a direct sim.Run of the
// same configuration.
func TestSimulateEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	req := SimulateRequest{Tasks: paperTasks(), Policy: "ccEDF", Exec: "c=0.9", Horizon: 280}
	body, _ := json.Marshal(req)
	resp := postJSON(t, ts.URL+"/v1/simulate", string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	got := decodeBody[sim.Result](t, resp)

	cfg, err := req.Config()
	if err != nil {
		t.Fatal(err)
	}
	want, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.TotalEnergy != want.TotalEnergy || got.Switches != want.Switches ||
		got.Completions != want.Completions || got.Policy != want.Policy {
		t.Errorf("endpoint result %+v differs from direct run %+v", got, want)
	}
}

// Every malformed or invalid body must be rejected with 400 and an
// explanatory message, never a panic or a silent default.
func TestSimulateValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, tc := range []struct {
		name, body, wantMsg string
	}{
		{"emptyBody", ``, "EOF"},
		{"notJSON", `{"tasks":`, "unexpected EOF"},
		{"unknownField", `{"tasks":[{"period":8,"wcet":3}],"bogus":1}`, "unknown field"},
		{"trailingGarbage", `{"tasks":[{"period":8,"wcet":3}]} "extra"`, "trailing data"},
		{"noTasks", `{"tasks":[]}`, "empty task set"},
		{"negativePeriod", `{"tasks":[{"period":-8,"wcet":3}]}`, "period must be positive"},
		{"wcetOverPeriod", `{"tasks":[{"period":4,"wcet":5}]}`, "exceeds period"},
		{"badPolicy", `{"tasks":[{"period":8,"wcet":3}],"policy":"warp"}`, "unknown policy"},
		{"badMachine", `{"tasks":[{"period":8,"wcet":3}],"machine":"cray"}`, "unknown machine"},
		{"machineConflict", `{"tasks":[{"period":8,"wcet":3}],"machine":"machine1","machineSpec":{"points":[{"freq":1,"voltage":5}]}}`, "mutually exclusive"},
		{"badCustomSpec", `{"tasks":[{"period":8,"wcet":3}],"machineSpec":{"points":[{"freq":0.5,"voltage":3}]}}`, "maximum frequency"},
		{"badIdle", `{"tasks":[{"period":8,"wcet":3}],"idleLevel":1.5}`, "idle level"},
		{"badExec", `{"tasks":[{"period":8,"wcet":3}],"exec":"c=2"}`, "bad execution fraction"},
		{"betaShapeOverLimit", `{"tasks":[{"period":8,"wcet":3}],"exec":"beta=1e5,1"}`, "beta shapes must lie in"},
		{"negativeHorizon", `{"tasks":[{"period":8,"wcet":3}],"horizon":-5}`, "non-negative"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp := postJSON(t, ts.URL+"/v1/simulate", tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400", resp.StatusCode)
			}
			eb := decodeBody[errorBody](t, resp)
			if !strings.Contains(eb.Error, tc.wantMsg) {
				t.Errorf("error %q does not mention %q", eb.Error, tc.wantMsg)
			}
		})
	}
}

// A body over the limit is refused with 413.
func TestSimulateBodyLimit(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := postJSON(t, ts.URL+"/v1/simulate", `{"tasks":[`+strings.Repeat(`{"period":8,"wcet":3},`, maxBody/20)+`]}`)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
	resp.Body.Close()
}

// With every simulate slot held, the next request is shed immediately
// with 429 and a Retry-After hint.
func TestSimulateShedsWhenFull(t *testing.T) {
	s, ts := newTestServer(t, Config{SimConcurrency: 2})
	// Occupy both slots deterministically.
	s.simSem <- struct{}{}
	s.simSem <- struct{}{}
	defer func() { <-s.simSem; <-s.simSem }()

	body, _ := json.Marshal(SimulateRequest{Tasks: paperTasks()})
	resp := postJSON(t, ts.URL+"/v1/simulate", string(body))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Errorf("Retry-After = %q, want \"1\"", ra)
	}
	resp.Body.Close()
}

// A client that walks away mid-simulation gets its run cancelled
// within the cooperative-check latency, not at the horizon.
func TestSimulateClientCancel(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// A horizon this deep takes >>1s to simulate; the request is
	// cancelled after 30ms.
	body, _ := json.Marshal(SimulateRequest{Tasks: paperTasks(), Horizon: 1e9})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/simulate", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = http.DefaultClient.Do(req)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("request succeeded despite cancellation")
	}
	if elapsed > 5*time.Second {
		t.Fatalf("cancelled request took %v to return", elapsed)
	}
}

// A simulation over the server-side time limit returns 504.
func TestSimulateServerTimeout(t *testing.T) {
	_, ts := newTestServer(t, Config{SimTimeout: 30 * time.Millisecond})
	body, _ := json.Marshal(SimulateRequest{Tasks: paperTasks(), Horizon: 1e9})
	resp := postJSON(t, ts.URL+"/v1/simulate", string(body))
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
	eb := decodeBody[errorBody](t, resp)
	if !strings.Contains(eb.Error, "stopped at") {
		t.Errorf("timeout error %q does not report partial progress", eb.Error)
	}
}

// A panicking handler becomes a 500; the server keeps serving.
func TestPanicRecovery(t *testing.T) {
	var logged string
	s := New(Config{Logf: func(f string, args ...any) { logged = fmt.Sprintf(f, args...) }})
	h := s.recoverPanics(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("boom")
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	if !strings.Contains(logged, "boom") {
		t.Errorf("panic not logged: %q", logged)
	}
	// The handler chain survives and serves the next request.
	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz after panic: %d", rec.Code)
	}
}

// A sweep job runs to completion and matches a direct experiment.Run.
func TestSweepJobLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	req := SweepRequest{
		Policies:     []string{"none", "ccEDF"},
		NTasks:       3,
		Utilizations: []float64{0.4, 0.8},
		Sets:         2,
		Seed:         9,
		Horizon:      150,
	}
	body, _ := json.Marshal(req)
	resp := postJSON(t, ts.URL+"/v1/sweep", string(body))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d, want 202", resp.StatusCode)
	}
	st := decodeBody[JobStatus](t, resp)
	if st.ID == "" || st.Status != JobQueued {
		t.Fatalf("bad accepted status %+v", st)
	}

	c := NewClient(ts.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	final, err := c.WaitJob(ctx, st.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != JobDone || final.Sweep == nil {
		t.Fatalf("job finished as %+v", final)
	}

	cfg, err := req.Config()
	if err != nil {
		t.Fatal(err)
	}
	want, err := experiment.RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(final.Sweep.Utilizations) != len(want.Utilizations) ||
		final.Sweep.Energy["ccEDF"][0] != want.Energy["ccEDF"][0] {
		t.Errorf("served sweep %+v differs from direct run %+v", final.Sweep, want)
	}
}

// With no workers started and the queue full, sweep submissions are
// shed with 429; polling an unknown job is 404.
// A uniprocessor sweep accepts every policy a simulate request does:
// the adaptive extensions run to completion, and an unknown name is a
// 400 before any job is queued.
func TestSweepJobExtendedPolicies(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	body, _ := json.Marshal(SweepRequest{
		Policies: []string{"fbEDF", "stSelect"}, NTasks: 3, Utilizations: []float64{0.5}, Sets: 1, Horizon: 150,
	})
	resp := postJSON(t, ts.URL+"/v1/sweep", string(body))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d, want 202", resp.StatusCode)
	}
	st := decodeBody[JobStatus](t, resp)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	final, err := NewClient(ts.URL).WaitJob(ctx, st.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != JobDone || len(final.Sweep.Energy["fbEDF"]) != 1 || len(final.Sweep.Energy["stSelect"]) != 1 {
		t.Fatalf("fbEDF/stSelect sweep finished as %+v (error %q)", final.Status, final.Error)
	}

	body, _ = json.Marshal(SweepRequest{Policies: []string{"warp"}, NTasks: 3, Sets: 1})
	if resp := postJSON(t, ts.URL+"/v1/sweep", string(body)); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown policy: status %d, want 400", resp.StatusCode)
	}
}

func TestSweepQueueFull(t *testing.T) {
	s := New(Config{QueueDepth: 1})
	// No Start(): nothing drains the queue.
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})

	body, _ := json.Marshal(SweepRequest{NTasks: 3, Sets: 1, Utilizations: []float64{0.5}})
	if resp := postJSON(t, ts.URL+"/v1/sweep", string(body)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d, want 202", resp.StatusCode)
	}
	resp := postJSON(t, ts.URL+"/v1/sweep", string(body))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second submit: %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	resp.Body.Close()

	if resp, err := http.Get(ts.URL + "/v1/jobs/job-999"); err != nil {
		t.Fatal(err)
	} else if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: %d, want 404", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
}

// A sweep's task count and job grid are bounded, so one request cannot
// make the server allocate per-task or per-job state without limit.
func TestSweepRequestBounds(t *testing.T) {
	u := []float64{0.5}
	for _, tc := range []struct {
		name string
		req  SweepRequest
		ok   bool
	}{
		{"default grid", SweepRequest{NTasks: 5}, true},
		{"task cap", SweepRequest{NTasks: maxSweepTasks, Sets: 1, Utilizations: u}, true},
		{"over task cap", SweepRequest{NTasks: maxSweepTasks + 1, Sets: 1, Utilizations: u}, false},
		{"huge task count", SweepRequest{NTasks: 1 << 40, Sets: 1, Utilizations: u}, false},
		{"job cap", SweepRequest{NTasks: 5, Sets: maxSweepJobs, Utilizations: u}, true},
		{"over job cap", SweepRequest{NTasks: 5, Sets: maxSweepJobs/2 + 1, Utilizations: []float64{0.4, 0.5}}, false},
		{"huge sets", SweepRequest{NTasks: 5, Sets: 1_000_000_000_000, Utilizations: u}, false},
		{"overflowing grid", SweepRequest{NTasks: 5, Sets: 1 << 62, Utilizations: []float64{0.2, 0.4, 0.6, 0.8}}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := tc.req.Config()
			if (err == nil) != tc.ok {
				t.Errorf("Config() error = %v, want ok=%v", err, tc.ok)
			}
		})
	}
}

// An oversized sweep or shard is a 400, and the server keeps serving.
func TestOversizedSweepRefused(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for _, c := range []struct{ path, body string }{
		{"/v1/sweep", `{"nTasks":5,"sets":1000000000000,"utilizations":[0.5]}`},
		{"/v1/shard", `{"sweep":{"nTasks":1000000000000,"sets":1,"utilizations":[0.5]},"jobs":[0]}`},
	} {
		resp := postJSON(t, ts.URL+c.path, c.body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", c.path, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after oversized requests: %d", resp.StatusCode)
	}
}

// A refused sweep leaves no job record. With the single worker held by
// a long job and one queue slot, one of the concurrent submissions is
// accepted and the rest are shed; the store holds exactly the jobs
// answered 202.
func TestSweepRefusalLeavesNoRecord(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1, Logf: t.Logf})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel()
		s.Shutdown(ctx) // the deadline cancels the long job
	}()

	long, _ := json.Marshal(SweepRequest{NTasks: 4, Sets: 8, Seed: 3, Horizon: 1e7})
	resp := postJSON(t, ts.URL+"/v1/sweep", string(long))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("long job: status %d, want 202", resp.StatusCode)
	}
	first := decodeBody[JobStatus](t, resp).ID
	for deadline := time.Now().Add(10 * time.Second); s.store.get(first).Status().Status != JobRunning; {
		if time.Now().After(deadline) {
			t.Fatal("the worker never picked up the long job")
		}
		time.Sleep(time.Millisecond)
	}

	const n = 8
	short, _ := json.Marshal(SweepRequest{NTasks: 3, Sets: 1, Utilizations: []float64{0.5}})
	codes, ids := make([]int, n), make([]string, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", bytes.NewReader(short))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			codes[i] = resp.StatusCode
			var st JobStatus
			if resp.StatusCode == http.StatusAccepted && json.NewDecoder(resp.Body).Decode(&st) == nil {
				ids[i] = st.ID
			}
		}()
	}
	wg.Wait()
	want := map[string]bool{first: true}
	shed := 0
	for i, code := range codes {
		switch code {
		case http.StatusAccepted:
			want[ids[i]] = true
		case http.StatusTooManyRequests:
			shed++
		default:
			t.Errorf("submission %d: status %d, want 202 or 429", i, code)
		}
	}
	if shed != n-1 {
		t.Errorf("%d of %d submissions shed, want %d", shed, n, n-1)
	}
	got := map[string]bool{}
	s.store.each(func(j *job) { got[j.id] = true })
	if !maps.Equal(got, want) {
		t.Errorf("store holds %v, want the accepted jobs %v", got, want)
	}
}

// Shutdown flips readiness, refuses new sweeps, cancels outstanding
// jobs, and leaves every job in a terminal state.
func TestDrain(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4, Logf: t.Logf})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if resp, err := http.Get(ts.URL + "/readyz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz before drain: %v %v", resp, err)
	}

	// One long-running job (deep horizon) plus queued ones behind it.
	long, _ := json.Marshal(SweepRequest{NTasks: 4, Sets: 8, Seed: 3, Horizon: 1e7})
	var ids []string
	for i := 0; i < 3; i++ {
		resp := postJSON(t, ts.URL+"/v1/sweep", string(long))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: status %d", i, resp.StatusCode)
		}
		ids = append(ids, decodeBody[JobStatus](t, resp).ID)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := s.Shutdown(ctx) // deadline forces cancellation of the running job
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("shutdown took %v", elapsed)
	}
	if err != nil && err != context.DeadlineExceeded {
		t.Fatalf("shutdown: %v", err)
	}

	// Draining state is visible and new work is refused.
	if resp, err := http.Get(ts.URL + "/readyz"); err != nil {
		t.Fatal(err)
	} else if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz during drain: %d, want 503", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	resp := postJSON(t, ts.URL+"/v1/sweep", string(long))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("sweep during drain: %d, want 503", resp.StatusCode)
	}
	resp.Body.Close()

	for _, id := range ids {
		st := s.store.get(id).Status()
		if !st.Status.Terminal() {
			t.Errorf("job %s left in non-terminal state %q", id, st.Status)
		}
	}
	// Second Shutdown is a no-op.
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
}

// The full server lifecycle must not leak goroutines.
func TestServerLifecycleGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	func() {
		s := New(Config{Workers: 3, Logf: t.Logf})
		s.Start()
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()

		body, _ := json.Marshal(SimulateRequest{Tasks: paperTasks()})
		for i := 0; i < 5; i++ {
			resp := postJSON(t, ts.URL+"/v1/simulate", string(body))
			resp.Body.Close()
		}
		sweep, _ := json.Marshal(SweepRequest{NTasks: 3, Sets: 1, Utilizations: []float64{0.5}, Horizon: 100})
		resp := postJSON(t, ts.URL+"/v1/sweep", string(sweep))
		id := decodeBody[JobStatus](t, resp).ID
		c := NewClient(ts.URL)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if _, err := c.WaitJob(ctx, id, 2*time.Millisecond); err != nil {
			t.Fatal(err)
		}
		if err := s.Shutdown(ctx); err != nil {
			t.Fatal(err)
		}
	}()
	http.DefaultClient.CloseIdleConnections()
	for i := 0; i < 200; i++ {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}
