package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"rtdvs/internal/sim"
	"rtdvs/internal/task"
)

// Every engine stops at the server's limits through the one run path: a
// request past SimTimeout answers 504, names how far it got and counts
// one timeout; a batch item that outlives the limit carries the same
// error while the item before it keeps its result; and a client that
// walks away gets its run stopped promptly, logged as 499.
func TestSimulateLimitsAcrossEngines(t *testing.T) {
	for _, tc := range []struct {
		name string
		req  SimulateRequest
	}{
		{"scalar", SimulateRequest{Tasks: paperTasks(), Horizon: 1e9}},
		{"partitioned", SimulateRequest{Tasks: multiTasks(), Horizon: 1e9, Cores: 2}},
		{"global", SimulateRequest{Tasks: multiTasks(), Policy: "gangLAEDF", Horizon: 1e9, Cores: 2, Placement: "global"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, ts := newTestServer(t, Config{SimTimeout: 30 * time.Millisecond})
			body, _ := json.Marshal(tc.req)
			resp := postJSON(t, ts.URL+"/v1/simulate", string(body))
			if resp.StatusCode != http.StatusGatewayTimeout {
				t.Fatalf("simulate: status %d, want 504", resp.StatusCode)
			}
			if eb := decodeBody[errorBody](t, resp); !strings.Contains(eb.Error, "stopped at") {
				t.Errorf("simulate: timeout error %q does not report partial progress", eb.Error)
			}
			if got := s.metrics.timeouts.Value(); got != 1 {
				t.Errorf("simulate: timeout counter %v, want 1", got)
			}

			body, _ = json.Marshal(SimulateBatchRequest{Items: []SimulateRequest{
				{Tasks: paperTasks(), Policy: "ccEDF", Horizon: 280},
				tc.req,
			}})
			resp = postJSON(t, ts.URL+"/v1/simulate:batch", string(body))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("batch: status %d, want 200", resp.StatusCode)
			}
			got := decodeBody[SimulateBatchResponse](t, resp)
			if got.Items[0].Result == nil || got.Items[0].Error != "" {
				t.Errorf("batch: item 0 lost its result: %+v", got.Items[0])
			}
			if e := got.Items[1].Error; !strings.Contains(e, "exceeded the 30ms limit") || !strings.Contains(e, "stopped at") {
				t.Errorf("batch: item 1 error %q does not carry the limit", e)
			}
			if got := s.metrics.timeouts.Value(); got != 2 {
				t.Errorf("batch: timeout counter %v, want 2", got)
			}

			s, ts = newTestServer(t, Config{})
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
			defer cancel()
			body, _ = json.Marshal(tc.req)
			req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/simulate", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := http.DefaultClient.Do(req); err == nil {
				t.Fatal("cancel: request succeeded despite cancellation")
			}
			// The horizon would take minutes; the handler must notice the
			// departed client at its next cooperative check.
			closed := s.metrics.requests.With("simulate", "499")
			for deadline := time.Now().Add(5 * time.Second); closed.Value() < 1; time.Sleep(5 * time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("cancel: the run outlived its client by 5s")
				}
			}
		})
	}
}

// Pooled runner pairs leak nothing between runs. Each request leaves a
// different buffer shape behind for the next: an overloaded 12-task set
// with misses, then the paper's 3-task set; partitioned 4-core, global
// 2-core, then scalar; switch overhead on, then off. On one simulate
// slot every answer must still equal, byte for byte, a fresh engine's,
// both as single requests and as the items of one batch (which runs all
// of them on one pair). The single requests are served on the test's
// own goroutine, so the pool hands each one the pair the previous one
// put back.
func TestPooledRunnersLeakNothing(t *testing.T) {
	overloaded := make([]task.Task, 12)
	for i := range overloaded {
		overloaded[i] = task.Task{Period: float64(10 + i), WCET: 2}
	}
	reqs := []SimulateRequest{
		{Tasks: overloaded, Policy: "none", Horizon: 400},
		{Tasks: paperTasks(), Policy: "laEDF", Exec: "c=0.9", Horizon: 280},
		{Tasks: multiTasks(), Policy: "ccEDF", Horizon: 280, Cores: 4},
		{Tasks: multiTasks(), Policy: "gangCCEDF", Exec: "uniform", Seed: 5, Horizon: 280, Cores: 2, Placement: "global"},
		{Tasks: paperTasks(), Policy: "ccEDF", Exec: "beta=2,5", Seed: 3, Overhead: true, Horizon: 280},
		{Tasks: paperTasks(), Policy: "ccEDF", Exec: "beta=2,5", Seed: 3, Horizon: 280},
	}
	fresh := SimulateBatchResponse{Items: make([]SimulateBatchItem, len(reqs))}
	for i := range reqs {
		if reqs[i].Multi() {
			cfg, err := reqs[i].MultiConfig()
			if err != nil {
				t.Fatal(err)
			}
			if fresh.Items[i].Multi, err = sim.RunMulti(cfg); err != nil {
				t.Fatal(err)
			}
			continue
		}
		cfg, err := reqs[i].Config()
		if err != nil {
			t.Fatal(err)
		}
		if fresh.Items[i].Result, err = sim.Run(cfg); err != nil {
			t.Fatal(err)
		}
	}
	if fresh.Items[0].Result.MissCount() == 0 {
		t.Fatal("the overloaded set missed no deadline; it leaves no miss buffer behind")
	}

	s, _ := newTestServer(t, Config{SimConcurrency: 1})
	post := func(path string, v any) []byte {
		body, _ := json.Marshal(v)
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", path, bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", path, rec.Code, rec.Body)
		}
		return rec.Body.Bytes()
	}
	encode := func(v any) []byte {
		var b bytes.Buffer
		if err := json.NewEncoder(&b).Encode(v); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	for i, req := range reqs {
		var want []byte
		if req.Multi() {
			want = encode(fresh.Items[i].Multi)
		} else {
			want = encode(fresh.Items[i].Result)
		}
		if got := post("/v1/simulate", req); !bytes.Equal(got, want) {
			t.Errorf("request %d: pooled answer differs from a fresh run:\n got %s\nwant %s", i, got, want)
		}
	}
	if got, want := post("/v1/simulate:batch", SimulateBatchRequest{Items: reqs}), encode(fresh); !bytes.Equal(got, want) {
		t.Errorf("batch differs from fresh runs:\n got %s\nwant %s", got, want)
	}
}
