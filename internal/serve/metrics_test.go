package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"rtdvs/internal/obs"
)

// TestMetricsEndpoint drives a few requests through the server and then
// checks that /metrics serves valid Prometheus text whose counters match
// what actually happened.
func TestMetricsEndpoint(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(Config{SimConcurrency: 1, Workers: 1, QueueDepth: 2, Logf: t.Logf, Registry: reg})
	s.Start()
	defer func() {
		sctx, cancel := shutdownCtx(t)
		defer cancel()
		if err := s.Shutdown(sctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	if _, err := hs.Client().Get(hs.URL + "/healthz"); err != nil {
		t.Fatal(err)
	}
	body := strings.NewReader(`{"tasks":[{"period":8,"wcet":3}],"policy":"ccEDF","horizon":100}`)
	resp, err := hs.Client().Post(hs.URL+"/v1/simulate", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("simulate: status %d", resp.StatusCode)
	}

	resp, err = hs.Client().Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("Content-Type"); got != obs.ContentType {
		t.Errorf("Content-Type = %q, want %q", got, obs.ContentType)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateText(data); err != nil {
		t.Fatalf("/metrics output invalid: %v\n%s", err, data)
	}
	out := string(data)
	for _, want := range []string{
		`rtdvs_http_requests_total{route="healthz",code="200"} 1`,
		`rtdvs_http_requests_total{route="simulate",code="200"} 1`,
		`rtdvs_http_request_duration_seconds_count{route="simulate"} 1`,
		"# TYPE rtdvs_http_request_duration_seconds histogram",
		"rtdvs_sweep_queue_depth 0",
		"rtdvs_sim_slots_in_use 0",
		"rtdvs_http_shed_total 0",
		"rtdvs_http_timeout_total 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestShedAndErrorCodesCounted exercises the 429 and 400 paths and
// checks that the labeled request counter and the shed counter agree.
func TestShedAndErrorCodesCounted(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(Config{SimConcurrency: 1, Workers: 1, QueueDepth: 1, Logf: t.Logf, Registry: reg})
	s.Start()
	defer func() {
		sctx, cancel := shutdownCtx(t)
		defer cancel()
		if err := s.Shutdown(sctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	// Hold the only simulate slot so the next request sheds.
	s.simSem <- struct{}{}
	body := strings.NewReader(`{"tasks":[{"period":8,"wcet":3}],"horizon":100}`)
	resp, err := hs.Client().Post(hs.URL+"/v1/simulate", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("expected 429 with slot held, got %d", resp.StatusCode)
	}
	<-s.simSem

	// A malformed body lands in the 400 bucket.
	resp, err = hs.Client().Post(hs.URL+"/v1/simulate", "application/json", strings.NewReader(`{`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	if got := s.metrics.shed.Value(); got != 1 {
		t.Errorf("shed counter = %v, want 1", got)
	}
	if got := s.metrics.requests.With("simulate", "429").Value(); got != 1 {
		t.Errorf("429 request counter = %v, want 1", got)
	}
	if got := s.metrics.requests.With("simulate", "400").Value(); got != 1 {
		t.Errorf("400 request counter = %v, want 1", got)
	}
}

// TestDebugMux checks the opt-in pprof mux serves profiles and metrics
// without them being reachable from the public handler.
func TestDebugMux(t *testing.T) {
	s := New(Config{Logf: t.Logf})
	ds := httptest.NewServer(s.DebugMux())
	defer ds.Close()

	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline", "/metrics"} {
		resp, err := ds.Client().Get(ds.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
	}

	// The public handler must not expose pprof.
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	resp, err := hs.Client().Get(hs.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Error("public handler serves /debug/pprof/")
	}
}

func shutdownCtx(t *testing.T) (context.Context, context.CancelFunc) {
	t.Helper()
	return context.WithTimeout(context.Background(), 10*time.Second)
}

// Sweep jobs run by the workers must show up in the registry's sweep
// progress counters.
func TestSweepProgressMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	body, _ := json.Marshal(SweepRequest{
		Policies:     []string{"none", "ccEDF"},
		NTasks:       3,
		Utilizations: []float64{0.4, 0.8},
		Sets:         2,
		Seed:         9,
		Horizon:      150,
	})
	resp := postJSON(t, ts.URL+"/v1/sweep", string(body))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d, want 202", resp.StatusCode)
	}
	st := decodeBody[JobStatus](t, resp)
	ctx, cancel := shutdownCtx(t)
	defer cancel()
	if _, err := NewClient(ts.URL).WaitJob(ctx, st.ID, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	text, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(text), "rtdvs_sweep_jobs_done_total 4") {
		t.Error("scrape missing sweep progress counter")
	}
	if !strings.Contains(string(text), "rtdvs_sweep_sim_runs_total 8") {
		t.Error("scrape missing sweep sim-run counter")
	}
}
