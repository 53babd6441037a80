package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"rtdvs/internal/experiment"
)

// shardSweep is a small sweep request shared by the shard tests.
func shardSweep() SweepRequest {
	return SweepRequest{
		Policies:     []string{"none", "ccEDF"},
		NTasks:       3,
		Utilizations: []float64{0.3, 0.6, 0.9},
		Sets:         2,
		Seed:         11,
		Horizon:      200,
	}
}

// A shard executed over HTTP must return exactly what RunJobs computes
// locally — this is the wire half of the fabric's bit-identity claim.
func TestShardEndpointMatchesLocal(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	client := NewClient(ts.URL)

	req := ShardRequest{Sweep: shardSweep(), Jobs: []int{1, 3, 4}}
	resp, err := client.Shard(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Cached {
		t.Error("first execution reported Cached")
	}

	cfg, err := req.Sweep.Config()
	if err != nil {
		t.Fatal(err)
	}
	want, err := experiment.RunJobs(context.Background(), cfg, req.Jobs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resp.Results, want) {
		t.Fatalf("remote shard differs from local:\nremote %+v\nlocal  %+v", resp.Results, want)
	}
}

// A repeated shard — the retry/hedge case — replays from the result
// cache, bit-identical, and the hit/miss counters account for it.
func TestShardCacheReplay(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	client := NewClient(ts.URL)

	req := ShardRequest{Sweep: shardSweep(), Jobs: []int{0, 5}}
	first, err := client.Shard(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	second, err := client.Shard(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Error("second execution not served from cache")
	}
	if !reflect.DeepEqual(first.Results, second.Results) {
		t.Fatal("cached replay differs from original")
	}
	if hits := s.metrics.shardCacheHits.Value(); hits != 1 {
		t.Errorf("cache hits = %v, want 1", hits)
	}
	if misses := s.metrics.shardCacheMisses.Value(); misses != 1 {
		t.Errorf("cache misses = %v, want 1", misses)
	}

	// A different job list is a different content address.
	other, err := client.Shard(context.Background(), ShardRequest{Sweep: shardSweep(), Jobs: []int{5, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if other.Cached {
		t.Error("differently-ordered job list hit the cache")
	}
}

func TestShardValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for name, body := range map[string]string{
		"no jobs":       `{"sweep":{"nTasks":3,"sets":2},"jobs":[]}`,
		"out of grid":   `{"sweep":{"nTasks":3,"sets":2,"utilizations":[0.5]},"jobs":[2]}`,
		"negative":      `{"sweep":{"nTasks":3,"sets":2},"jobs":[-1]}`,
		"bad sweep":     `{"sweep":{"nTasks":0},"jobs":[0]}`,
		"unknown field": `{"sweep":{"nTasks":3},"jobs":[0],"bogus":1}`,
	} {
		resp := postJSON(t, ts.URL+"/v1/shard", body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
}

// The FIFO cache evicts its oldest entry at capacity and never grows
// past the bound.
func TestShardCacheEviction(t *testing.T) {
	c := newShardCache(2)
	r := func(i int) []experiment.JobResult { return []experiment.JobResult{{Index: i}} }
	c.put("a", r(0))
	c.put("b", r(1))
	c.put("a", r(9)) // duplicate put: ignored, no eviction
	if got, ok := c.get("a"); !ok || got[0].Index != 0 {
		t.Fatal("duplicate put overwrote or evicted the original")
	}
	c.put("c", r(2)) // evicts "a", the oldest
	if _, ok := c.get("a"); ok {
		t.Error("oldest entry survived past capacity")
	}
	if _, ok := c.get("b"); !ok {
		t.Error("newer entry evicted")
	}
	if _, ok := c.get("c"); !ok {
		t.Error("just-inserted entry missing")
	}
	if len(c.m) != 2 || len(c.order) != 2 {
		t.Errorf("cache holds %d/%d entries, want 2/2", len(c.m), len(c.order))
	}
}

// Shards beyond the concurrency bound are shed with 429, not queued.
func TestShardShedsWhenFull(t *testing.T) {
	s, ts := newTestServer(t, Config{ShardConcurrency: 1})
	// Occupy the only slot deterministically.
	s.shardSem <- struct{}{}
	defer func() { <-s.shardSem }()

	resp := postJSON(t, ts.URL+"/v1/shard", `{"sweep":{"nTasks":3,"sets":2},"jobs":[0]}`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Errorf("Retry-After = %q, want \"1\"", ra)
	}
}

// Satellite: graceful drain must wait for in-flight shard work — the
// response is written before Shutdown returns, and no handler
// goroutines outlive it.
func TestShardDrainWaitsForInflight(t *testing.T) {
	before := runtime.NumGoroutine()
	s := New(Config{Logf: t.Logf})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	started := make(chan struct{})
	type result struct {
		status int
		err    error
	}
	resCh := make(chan result, 1)
	go func() {
		close(started)
		resp, err := http.Post(ts.URL+"/v1/shard", "application/json",
			strings.NewReader(`{"sweep":{"nTasks":6,"sets":8,"seed":5,"horizon":2000},"jobs":[0,1,2,3,4,5,6,7]}`))
		if err != nil {
			resCh <- result{0, err}
			return
		}
		resp.Body.Close()
		resCh <- result{resp.StatusCode, nil}
	}()
	<-started
	// Wait for the shard to actually be in flight.
	deadline := time.Now().Add(5 * time.Second)
	for s.metrics.shardCacheMisses.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("shard never started")
		}
		time.Sleep(2 * time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("graceful shutdown errored: %v", err)
	}
	// Shutdown returned within the deadline, so the shard must have
	// completed — its response is already decided.
	select {
	case r := <-resCh:
		if r.err != nil {
			t.Fatalf("in-flight shard request failed: %v", r.err)
		}
		if r.status != http.StatusOK {
			t.Fatalf("in-flight shard answered %d, want 200", r.status)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("shard response not written after drain completed")
	}

	// New shards are refused while drained.
	resp := postJSON(t, ts.URL+"/v1/shard", `{"sweep":{"nTasks":3,"sets":2},"jobs":[0]}`)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-drain shard answered %d, want 503", resp.StatusCode)
	}

	ts.Close()
	checkGoroutineCount(t, before)
}

// checkGoroutineCount allows the runtime a moment to retire exiting
// goroutines before declaring a leak.
func checkGoroutineCount(t *testing.T, before int) {
	t.Helper()
	for i := 0; i < 200; i++ {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}

// A shard request aborted by Shutdown's deadline is cancelled, not
// stuck: the handler returns promptly once baseCtx falls.
func TestShardCancelledByShutdownDeadline(t *testing.T) {
	s := New(Config{Logf: t.Logf, ShardTimeout: time.Hour})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resCh := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/shard", "application/json",
			strings.NewReader(`{"sweep":{"nTasks":8,"sets":40,"seed":5,"horizon":40000},"jobs":[0,1,2,3,4,5,6,7,8,9]}`))
		if err != nil {
			resCh <- 0
			return
		}
		resp.Body.Close()
		resCh <- resp.StatusCode
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.metrics.shardCacheMisses.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("shard never started")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// An already-expired context forces the hard-cancel path.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.Shutdown(ctx); err == nil {
		t.Error("expired-deadline shutdown reported clean drain")
	}
	select {
	case status := <-resCh:
		// 499 is written for a cancelled shard; the exact code matters
		// less than the handler having returned.
		if status == http.StatusOK {
			t.Error("cancelled shard reported success")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("shard handler stuck after shutdown cancelled it")
	}
}

// A distribution exec spec has no uniprocessor sweep model: at cores 0
// the sweep and shard endpoints refuse it with a 400 that names the
// models they take, while a multi-core sweep, which hands the spec to
// the engine, runs it. Neither endpoint answers 500.
func TestSweepDistributionExec(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	client := NewClient(ts.URL)
	for _, exec := range []string{"beta=2,5", "bimodal=0.2,0.9,0.3", "hist=1,2,1"} {
		for _, cores := range []int{0, 2} {
			sweep := SweepRequest{
				Policies: []string{"ccEDF"}, NTasks: 3, Utilizations: []float64{0.5},
				Sets: 1, Seed: 3, Horizon: 200, Cores: cores, Exec: exec,
			}
			t.Run(fmt.Sprintf("%s/cores=%d", exec, cores), func(t *testing.T) {
				sweepBody, _ := json.Marshal(sweep)
				shardBody, _ := json.Marshal(ShardRequest{Sweep: sweep, Jobs: []int{0}})
				sweepResp := postJSON(t, ts.URL+"/v1/sweep", string(sweepBody))
				shardResp := postJSON(t, ts.URL+"/v1/shard", string(shardBody))
				if cores == 0 {
					for _, resp := range []*http.Response{sweepResp, shardResp} {
						if resp.StatusCode != http.StatusBadRequest {
							t.Errorf("%s: status %d, want 400", resp.Request.URL.Path, resp.StatusCode)
						}
						eb := decodeBody[errorBody](t, resp)
						for _, model := range []string{`"wcet"`, `"c=<frac>"`, `"uniform"`} {
							if !strings.Contains(eb.Error, model) {
								t.Errorf("%s: error %q does not name %s", resp.Request.URL.Path, eb.Error, model)
							}
						}
					}
					return
				}
				if shardResp.StatusCode != http.StatusOK {
					t.Errorf("shard: status %d, want 200", shardResp.StatusCode)
				}
				shardResp.Body.Close()
				if sweepResp.StatusCode != http.StatusAccepted {
					t.Fatalf("sweep: status %d, want 202", sweepResp.StatusCode)
				}
				st := decodeBody[JobStatus](t, sweepResp)
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				defer cancel()
				final, err := client.WaitJob(ctx, st.ID, 5*time.Millisecond)
				if err != nil {
					t.Fatal(err)
				}
				if final.Status != JobDone {
					t.Errorf("sweep finished %v: %s", final.Status, final.Error)
				}
			})
		}
	}
}
