package fabric

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rtdvs/internal/experiment"
	"rtdvs/internal/fabric/chaostest"
	"rtdvs/internal/obs"
	"rtdvs/internal/serve"
)

// testSweep is the reference sweep for the fabric tests: 3 utilization
// points × 2 sets × 2 policies, small enough to run dozens of times.
func testSweep() serve.SweepRequest {
	return serve.SweepRequest{
		Policies:     []string{"none", "ccEDF"},
		NTasks:       3,
		Utilizations: []float64{0.3, 0.6, 0.9},
		Sets:         2,
		Seed:         11,
		Horizon:      200,
	}
}

// localBaseline computes the sweep the way a plain single-process run
// would — the bit-identity reference for every distributed variant.
func localBaseline(t *testing.T) *experiment.Sweep {
	t.Helper()
	req := testSweep()
	cfg, err := req.Config()
	if err != nil {
		t.Fatal(err)
	}
	sw, err := experiment.RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sw
}

// startWorker boots one real serve.Server worker and returns its URL.
func startWorker(t *testing.T) string {
	t.Helper()
	s := serve.New(serve.Config{Logf: t.Logf})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return ts.URL
}

func assertIdentical(t *testing.T, want, got *experiment.Sweep) {
	t.Helper()
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("distributed sweep differs from local:\nlocal       %+v\ndistributed %+v", want, got)
	}
}

// With no workers the fabric is exactly the local harness.
func TestNoWorkersRunsLocally(t *testing.T) {
	want := localBaseline(t)
	got, err := Run(context.Background(), Config{Sweep: testSweep()})
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, want, got)
}

// The plain distributed case: real workers, no faults.
func TestDistributedMatchesLocal(t *testing.T) {
	want := localBaseline(t)
	got, err := Run(context.Background(), Config{
		Sweep:     testSweep(),
		Workers:   []string{startWorker(t), startWorker(t)},
		ShardSize: 2,
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, want, got)
}

func TestInvalidSweepRejected(t *testing.T) {
	if _, err := Run(context.Background(), Config{Sweep: serve.SweepRequest{NTasks: 0}}); err == nil {
		t.Fatal("invalid sweep accepted")
	}
}

// The headline chaos criterion: under every seed of a fault schedule
// that drops, delays, duplicates, truncates, and 500s shard traffic,
// the folded sweep stays bit-identical to the fault-free local run.
// Run with -race in CI, this doubles as the fabric's race soak.
func TestChaosBitIdentity(t *testing.T) {
	want := localBaseline(t)
	seeds := []uint64{1, 2, 3, 5, 8, 13, 21, 34, 55, 89}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			tr := chaostest.New(seed, nil)
			tr.DropProb = 0.15
			tr.Err500Prob = 0.15
			tr.DupProb = 0.10
			tr.TruncateProb = 0.10
			tr.DelayProb = 0.20
			tr.MaxDelay = 5 * time.Millisecond

			f, err := newFabric(Config{
				Sweep:         testSweep(),
				Workers:       []string{startWorker(t), startWorker(t), startWorker(t)},
				ShardSize:     1, // one job per shard: maximum dispatch traffic
				ShardTimeout:  10 * time.Second,
				MaxAttempts:   4,
				HedgeAfter:    50 * time.Millisecond,
				EjectAfter:    3,
				ProbeInterval: 20 * time.Millisecond,
				Seed:          int64(seed),
				HTTP:          &http.Client{Transport: tr},
				Logf:          t.Logf,
			})
			if err != nil {
				t.Fatal(err)
			}
			got, err := f.run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			assertIdentical(t, want, got)
			if d := f.m.dispatched.Value(); d < 6 {
				t.Errorf("dispatched %v shards, want at least one per shard (6)", d)
			}
		})
	}
}

// A worker that dies mid-shard: its in-flight dispatch fails, the
// shard is reassigned, and the sweep still folds bit-identically.
func TestWorkerKillMidShard(t *testing.T) {
	want := localBaseline(t)

	// The doomed worker signals when a shard lands, then stalls it long
	// enough for the test to sever every connection.
	s := serve.New(serve.Config{Logf: t.Logf})
	s.Start()
	hit := make(chan struct{})
	closeHit := sync.OnceFunc(func() { close(hit) })
	var once sync.Once
	var doomed *httptest.Server
	doomed = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/v1/shard") {
			kill := false
			once.Do(func() { kill = true })
			if kill {
				// Drain the body so the server's background read can
				// notice the severed connection and cancel the context.
				io.Copy(io.Discard, r.Body)
				closeHit()
				select {
				case <-r.Context().Done():
				case <-time.After(10 * time.Second):
				}
				return
			}
		}
		s.Handler().ServeHTTP(w, r)
	}))
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		<-hit
		doomed.CloseClientConnections()
		doomed.Close()
	}()
	t.Cleanup(func() {
		// A run that never reached the doomed worker still tears it down.
		closeHit()
		<-killed
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})

	// The healthy worker holds its first shard until the doomed one has
	// landed, so the doomed worker always claims a shard to die on
	// however the two worker loops are scheduled.
	healthyInner := startWorker(t)
	healthy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/v1/shard") {
			select {
			case <-hit:
			case <-time.After(10 * time.Second):
			}
		}
		proxyTo(t, healthyInner, w, r)
	}))
	t.Cleanup(healthy.Close)

	f, err := newFabric(Config{
		Sweep:         testSweep(),
		Workers:       []string{healthy.URL, doomed.URL},
		ShardSize:     2,
		ShardTimeout:  5 * time.Second,
		MaxAttempts:   4,
		HedgeAfter:    100 * time.Millisecond,
		EjectAfter:    2,
		ProbeInterval: 20 * time.Millisecond,
		Seed:          7,
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := f.run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, want, got)
	if f.m.reassigned.Value() < 1 {
		t.Errorf("reassigned = %v, want >= 1 (the killed worker's shard)", f.m.reassigned.Value())
	}
}

// Every worker unreachable: all are ejected and the run degrades to
// local execution — same bits, plus the eject/degrade counters to
// prove the path was taken.
func TestAllWorkersEjectedDegradesToLocal(t *testing.T) {
	want := localBaseline(t)
	f, err := newFabric(Config{
		Sweep: testSweep(),
		// Reserved TEST-NET-1 address: connections fail fast.
		Workers:       []string{"http://192.0.2.1:1", "http://192.0.2.1:2"},
		ShardSize:     2,
		ShardTimeout:  500 * time.Millisecond,
		MaxAttempts:   2,
		EjectAfter:    1,
		ProbeInterval: 10 * time.Millisecond,
		Seed:          3,
		HTTP:          &http.Client{Timeout: 200 * time.Millisecond},
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := f.run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, want, got)
	if e := f.m.ejected.Value(); e != 2 {
		t.Errorf("ejected = %v, want 2", e)
	}
	if l := f.m.localRuns.Value(); l < 1 {
		t.Errorf("local shard runs = %v, want >= 1 (degradation)", l)
	}
	if h := f.m.healthy.Value(); h != 0 {
		t.Errorf("healthy workers gauge = %v, want 0", h)
	}
}

// A truncated response forces a retry; the worker's shard cache serves
// the retry, and the coordinator's cache-hit counter sees it.
func TestRetryHitsWorkerCache(t *testing.T) {
	want := localBaseline(t)
	tr := &truncateFirstN{n: 2}
	f, err := newFabric(Config{
		Sweep:         testSweep(),
		Workers:       []string{startWorker(t)},
		ShardSize:     3,
		ShardTimeout:  10 * time.Second,
		MaxAttempts:   4,
		EjectAfter:    10,
		ProbeInterval: 20 * time.Millisecond,
		Seed:          5,
		HTTP:          &http.Client{Transport: tr},
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := f.run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, want, got)
	if h := f.m.cacheHits.Value(); h < 1 {
		t.Errorf("worker cache hits = %v, want >= 1", h)
	}
	if r := f.m.retries.Value(); r < 1 {
		t.Errorf("retries = %v, want >= 1", r)
	}
}

// A worker whose only shard slot is held sheds every dispatch with 429.
// The fabric counts each 429 as a failed dispatch, the client under it
// retries nothing (every POST /v1/shard on the wire is one dispatch),
// and once the worker is ejected the sweep finishes locally,
// bit-identical to the plain run.
func TestSheddingWorker(t *testing.T) {
	want := localBaseline(t)

	reg := obs.NewRegistry()
	s := serve.New(serve.Config{ShardConcurrency: 1, Registry: reg, Logf: t.Logf})
	s.Start()
	ts := httptest.NewServer(s.Handler())

	// Hold the slot with a shard of another sweep, deep enough to run
	// until the cleanup cancels it.
	hold, release := context.WithCancel(context.Background())
	held := make(chan struct{})
	go func() {
		defer close(held)
		serve.NewClient(ts.URL).Shard(hold, serve.ShardRequest{
			Sweep: serve.SweepRequest{NTasks: 6, Sets: 1, Seed: 99, Horizon: 1e9},
			Jobs:  []int{0},
		})
	}()
	t.Cleanup(func() {
		release()
		<-held
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	for scrape(t, reg, "rtdvs_shard_slots_in_use") < 1 {
		select {
		case <-held:
			t.Fatal("holding shard ended before it took the slot")
		case <-time.After(5 * time.Millisecond):
		}
	}

	var posts, sheds atomic.Int64
	count := roundTripFunc(func(r *http.Request) (*http.Response, error) {
		resp, err := http.DefaultTransport.RoundTrip(r)
		if r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/v1/shard") {
			posts.Add(1)
			if err == nil && resp.StatusCode == http.StatusTooManyRequests {
				sheds.Add(1)
			}
		}
		return resp, err
	})
	f, err := newFabric(Config{
		Sweep:       testSweep(),
		Workers:     []string{ts.URL},
		ShardSize:   2,
		MaxAttempts: 4,
		EjectAfter:  2,
		Seed:        17,
		HTTP:        &http.Client{Transport: count},
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := f.run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, want, got)

	d := f.m.dispatched.Value()
	if d != float64(posts.Load()) {
		t.Errorf("dispatched = %v, but the wire carried %d shard POSTs", d, posts.Load())
	}
	if sheds.Load() != posts.Load() {
		t.Errorf("%d of %d shard POSTs answered 429, want all", sheds.Load(), posts.Load())
	}
	if w := scrape(t, reg, "rtdvs_http_shed_total"); w != d {
		t.Errorf("worker shed %v shards, fabric dispatched %v", w, d)
	}
	if r := f.m.reassigned.Value(); d != 2 || r != d {
		t.Errorf("dispatched %v, reassigned %v: want both 2, every 429 a failed dispatch", d, r)
	}
	if e := f.m.ejected.Value(); e != 1 {
		t.Errorf("ejected = %v, want 1", e)
	}
	if l := f.m.localRuns.Value(); l != 3 {
		t.Errorf("local shard runs = %v, want all 3", l)
	}
}

// scrape reads one unlabelled sample from reg's text exposition.
func scrape(t *testing.T, reg *obs.Registry, name string) float64 {
	t.Helper()
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(sb.String(), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatal(err)
			}
			return f
		}
	}
	t.Fatalf("no %s sample in the exposition", name)
	return 0
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// truncateFirstN truncates the first n shard responses (the compute
// succeeded and was cached server-side; only the reply was torn).
type truncateFirstN struct {
	mu sync.Mutex
	n  int
}

func (t *truncateFirstN) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil || !strings.HasSuffix(req.URL.Path, "/v1/shard") {
		return resp, err
	}
	t.mu.Lock()
	tear := t.n > 0
	if tear {
		t.n--
	}
	t.mu.Unlock()
	if tear {
		resp.Body.Close()
		resp.Body = http.NoBody
		resp.ContentLength = 0
	}
	return resp, nil
}

// The fabric's counters land on the shared registry in Prometheus
// exposition form, ready for the CI metrics artifact.
func TestMetricsExposition(t *testing.T) {
	reg := obs.NewRegistry()
	_, err := Run(context.Background(), Config{
		Sweep:    testSweep(),
		Workers:  []string{startWorker(t)},
		Seed:     9,
		Logf:     t.Logf,
		Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, name := range []string{
		"rtdvs_fabric_shards_dispatched_total",
		"rtdvs_fabric_shard_retries_total",
		"rtdvs_fabric_shards_hedged_total",
		"rtdvs_fabric_workers_ejected_total",
		"rtdvs_fabric_shards_local_total",
		"rtdvs_fabric_healthy_workers",
	} {
		if !strings.Contains(text, name) {
			t.Errorf("metrics exposition lacks %s", name)
		}
	}
}

// Cancellation mid-run surfaces as an error, not a partial sweep.
func TestRunCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, Config{Sweep: testSweep(), Workers: []string{"http://192.0.2.1:1"}}); err == nil {
		t.Fatal("cancelled run returned a sweep")
	}
}

// A straggling worker gets hedged: the fast worker duplicates the slow
// shard and its result wins.
//
// The straggle is ordered by gates, not by wall-clock delays, so the
// outcome does not depend on machine load: the fast worker answers
// nothing until the slow worker holds a shard, and the slow worker
// holds that first shard until the fabric has hedged it or the shard
// timeout has passed.
func TestHedgedStraggler(t *testing.T) {
	want := localBaseline(t)
	const shardTimeout = 10 * time.Second

	var fab atomic.Pointer[fabric]
	slowHolds := make(chan struct{})
	fastInner := startWorker(t)
	fast := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/v1/shard") {
			select {
			case <-slowHolds:
			case <-time.After(shardTimeout):
			}
		}
		proxyTo(t, fastInner, w, r)
	}))
	t.Cleanup(fast.Close)

	slowInner := startWorker(t)
	var once sync.Once
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/v1/shard") {
			once.Do(func() {
				close(slowHolds)
				giveUp := time.After(shardTimeout)
				tick := time.NewTicker(5 * time.Millisecond)
				defer tick.Stop()
				for f := fab.Load(); f == nil || f.m.hedged.Value() < 1; f = fab.Load() {
					select {
					case <-giveUp:
						return
					case <-tick.C:
					}
				}
			})
		}
		proxyTo(t, slowInner, w, r)
	}))
	t.Cleanup(slow.Close)

	f, err := newFabric(Config{
		Sweep:        testSweep(),
		Workers:      []string{fast.URL, slow.URL},
		ShardSize:    3,
		ShardTimeout: shardTimeout,
		MaxAttempts:  4,
		HedgeAfter:   50 * time.Millisecond,
		EjectAfter:   5,
		Seed:         13,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	fab.Store(f)
	got, err := f.run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, want, got)
	if h := f.m.hedged.Value(); h < 1 {
		t.Errorf("hedged = %v, want >= 1", h)
	}
}

// proxyTo forwards a request to another worker URL (a minimal reverse
// proxy for the straggler test).
func proxyTo(t *testing.T, base string, w http.ResponseWriter, r *http.Request) {
	req, err := http.NewRequestWithContext(r.Context(), r.Method, base+r.URL.Path, r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	req.Header = r.Header
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	defer resp.Body.Close()
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	if _, err := io.Copy(w, resp.Body); err != nil {
		t.Logf("proxy copy: %v", err)
	}
}
