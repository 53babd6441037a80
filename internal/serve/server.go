package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"rtdvs/internal/experiment"
	"rtdvs/internal/obs"
	"rtdvs/internal/sim"
)

// StatusClientClosedRequest is the nginx-convention status reported when
// the client abandoned a request before the simulation finished.
const StatusClientClosedRequest = 499

// The server's fixed request bounds.
const (
	// maxBody caps request bodies in bytes; a larger body is refused
	// with 413.
	maxBody = 1 << 20
	// maxBatchItems caps the item count of one /v1/simulate:batch
	// request; a larger batch is refused with 400.
	maxBatchItems = 256
	// maxSweepTasks caps nTasks, and maxSweepJobs the job grid
	// (utilization points × sets), of one /v1/sweep or /v1/shard
	// request; a larger sweep is refused with 400. Both sit far above
	// the largest panel the repository runs: 16 tasks per set, and 20
	// utilization points × 20 sets at the default depth.
	maxSweepTasks = 1024
	maxSweepJobs  = 1 << 16
	// shardCacheSize bounds the shard result cache, in entries.
	shardCacheSize = 128
	// retryAfter is the Retry-After value, in seconds, on every 429.
	retryAfter = "1"
)

// Config tunes the server's resource bounds. The zero value selects the
// defaults noted per field.
type Config struct {
	// SimConcurrency bounds concurrent /v1/simulate runs (default
	// GOMAXPROCS). Requests beyond the bound are shed with 429.
	SimConcurrency int
	// Workers is the number of goroutines draining the sweep queue
	// (default 2).
	Workers int
	// QueueDepth bounds the sweep queue (default 16). Submissions beyond
	// it are shed with 429.
	QueueDepth int
	// SimTimeout caps one simulate request (default 30s).
	SimTimeout time.Duration
	// SweepTimeout caps one sweep job (default 10m).
	SweepTimeout time.Duration
	// ShardConcurrency bounds concurrent /v1/shard runs (default
	// GOMAXPROCS). Requests beyond the bound are shed with 429, which
	// the fabric coordinator counts as a failed dispatch.
	ShardConcurrency int
	// ShardTimeout caps one shard request (default 2m).
	ShardTimeout time.Duration
	// Logf receives operational log lines (default log.Printf).
	Logf func(format string, args ...any)
	// Registry receives the server's metrics (default: a fresh private
	// registry). Share one registry across components to serve a single
	// /metrics page for the whole process.
	Registry *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.SimConcurrency <= 0 {
		c.SimConcurrency = runtime.GOMAXPROCS(0)
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.SimTimeout <= 0 {
		c.SimTimeout = 30 * time.Second
	}
	if c.SweepTimeout <= 0 {
		c.SweepTimeout = 10 * time.Minute
	}
	if c.ShardConcurrency <= 0 {
		c.ShardConcurrency = runtime.GOMAXPROCS(0)
	}
	if c.ShardTimeout <= 0 {
		c.ShardTimeout = 2 * time.Minute
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
	return c
}

// Server is the HTTP simulation service. Create with New, install
// Handler into an http.Server, call Start, and Shutdown to drain.
type Server struct {
	cfg      Config
	handler  http.Handler
	store    *jobStore
	registry *obs.Registry
	metrics  *serverMetrics
	// sweepMetrics aggregates job progress across every sweep the
	// workers run, so GET /metrics shows sweep throughput, not just
	// queue depth.
	sweepMetrics *experiment.Metrics

	simSem     chan struct{} // counting semaphore for simulate slots
	shardSem   chan struct{} // counting semaphore for shard slots
	shardCache *shardCache

	queueMu sync.RWMutex // guards queue sends against close on Shutdown
	queue   chan *job
	closed  bool

	draining atomic.Bool
	wg       sync.WaitGroup
	// inflight counts synchronous shard work. inflightMu orders its
	// Add against the draining flag: beginShard only Adds while holding
	// the mutex with draining unset, and Shutdown passes through the
	// mutex after setting the flag, so no Add-from-zero can race the
	// Wait (the sync.WaitGroup contract).
	inflightMu sync.Mutex
	inflight   sync.WaitGroup
	baseCtx    context.Context // parent of every sweep job's context
	baseCancel context.CancelFunc
}

// New builds a server; call Start before serving traffic.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:        cfg,
		store:      newJobStore(),
		registry:   cfg.Registry,
		simSem:     make(chan struct{}, cfg.SimConcurrency),
		shardSem:   make(chan struct{}, cfg.ShardConcurrency),
		shardCache: newShardCache(shardCacheSize),
		queue:      make(chan *job, cfg.QueueDepth),
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	s.metrics = newServerMetrics(s.registry, s)
	s.sweepMetrics = experiment.NewMetrics(s.registry)

	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.instrument("healthz", s.handleHealthz))
	mux.HandleFunc("GET /readyz", s.instrument("readyz", s.handleReadyz))
	mux.HandleFunc("POST /v1/simulate", s.instrument("simulate", s.handleSimulate))
	mux.HandleFunc("POST /v1/simulate:batch", s.instrument("simulateBatch", s.handleSimulateBatch))
	mux.HandleFunc("POST /v1/sweep", s.instrument("sweep", s.handleSweep))
	mux.HandleFunc("POST /v1/shard", s.instrument("shard", s.handleShard))
	mux.HandleFunc("GET /v1/jobs/{id}", s.instrument("job", s.handleJob))
	mux.HandleFunc("GET /metrics", s.instrument("metrics", s.handleMetrics))
	s.handler = s.recoverPanics(mux)
	return s
}

// Handler returns the root handler (panic recovery included).
func (s *Server) Handler() http.Handler { return s.handler }

// Start launches the sweep workers.
func (s *Server) Start() {
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
}

// Shutdown drains the server: readiness flips to 503, new sweep and
// shard submissions are refused, queued and running work — including
// synchronous shard requests in flight — is given until ctx expires to
// finish, then every context is cancelled and the stragglers are
// awaited unconditionally. Idempotent.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	// Barrier: any beginShard that saw draining unset has finished its
	// Add once we pass here; later ones refuse. See inflightMu.
	s.inflightMu.Lock()
	s.inflightMu.Unlock()
	s.queueMu.Lock()
	if !s.closed {
		s.closed = true
		close(s.queue)
	}
	s.queueMu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		s.inflight.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		// Deadline hit: cancel in-flight sweeps and shards. Their runs
		// stop at the next cooperative check and the workers exit
		// promptly.
		err = ctx.Err()
	}
	s.baseCancel()
	<-done
	// Jobs still queued when the channel closed never reach a worker;
	// mark them cancelled so clients polling them see a terminal state.
	s.store.each(func(j *job) {
		j.setState(JobCancelled, errors.New("server shut down before the job ran"), nil)
	})
	return err
}

// beginShard registers one in-flight shard, refusing when the server
// is draining. Balanced by s.inflight.Done() in the caller.
func (s *Server) beginShard() bool {
	s.inflightMu.Lock()
	defer s.inflightMu.Unlock()
	if s.draining.Load() {
		return false
	}
	s.inflight.Add(1)
	return true
}

// worker drains the sweep queue until Shutdown closes it.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

func (s *Server) runJob(j *job) {
	ctx, cancel := context.WithTimeout(s.baseCtx, s.cfg.SweepTimeout)
	defer cancel()
	j.setState(JobRunning, nil, nil)
	j.cfg.Metrics = s.sweepMetrics
	sw, err := experiment.RunContext(ctx, j.cfg)
	switch {
	case err == nil:
		j.setState(JobDone, nil, sw)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		j.setState(JobCancelled, err, nil)
	default:
		j.setState(JobFailed, err, nil)
	}
}

// recoverPanics converts a handler panic into a 500 without killing the
// process; the in-flight connection is answered if nothing was written
// yet.
func (s *Server) recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				if v == http.ErrAbortHandler {
					panic(v)
				}
				buf := make([]byte, 8<<10)
				buf = buf[:runtime.Stack(buf, false)]
				s.cfg.Logf("serve: panic in %s %s: %v\n%s", r.Method, r.URL.Path, v, buf)
				s.writeError(w, http.StatusInternalServerError, fmt.Errorf("internal error"))
			}
		}()
		next.ServeHTTP(w, r)
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.writeError(w, http.StatusServiceUnavailable, errors.New("draining"))
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var req SimulateRequest
	if !s.readRequest(w, r, &req) {
		return
	}
	v, err := req.validate()
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}

	// Bounded concurrency: a free slot or an immediate 429. No waiting —
	// shedding early keeps tail latency flat under overload; the caller
	// decides whether and when to try again.
	select {
	case s.simSem <- struct{}{}:
		defer func() { <-s.simSem }()
	default:
		s.shed(w)
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.SimTimeout)
	defer cancel()
	rp := runnerPool.Get().(*runners)
	if res, err := rp.run(ctx, &v); err != nil {
		code, err := s.runError(err)
		s.writeError(w, code, err)
	} else {
		s.writeJSON(w, http.StatusOK, res)
	}
	// The result aliases rp's buffers, so rp goes back only once the
	// response is written. A run that panicked never gets here: its
	// pair is dropped, not pooled.
	runnerPool.Put(rp)
}

// runners is the engine pair every simulation the server runs borrows
// from runnerPool: a used pair's buffers are already sized, so a steady
// stream of requests stops allocating engine state.
type runners struct {
	scalar sim.Runner
	multi  sim.MultiRunner
}

var runnerPool = sync.Pool{New: func() any { return new(runners) }}

// run executes a validated simulation on the engine its cores select.
// The result, a *sim.Result or a *sim.MultiResult, aliases rp's buffers
// until rp runs again.
func (rp *runners) run(ctx context.Context, v *simulation) (any, error) {
	if v.multi {
		return rp.multi.RunContext(ctx, v.mcfg)
	}
	return rp.scalar.RunContext(ctx, v.cfg)
}

// runError maps a failed run onto the status and error a simulate
// request or batch item answers: 504 (counted) when the simulate time
// limit stopped the run, 499 when the client went away — the status is
// for logs only — and 400 for any other error.
func (s *Server) runError(err error) (int, error) {
	var at, horizon float64
	var canceled *sim.Canceled
	var mcanceled *sim.MultiCanceled
	switch {
	case errors.As(err, &canceled):
		at, horizon = canceled.At, canceled.Partial.Horizon
	case errors.As(err, &mcanceled):
		at, horizon = mcanceled.At, mcanceled.Partial.Horizon
	default:
		return http.StatusBadRequest, err
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		return StatusClientClosedRequest, errors.New("client closed request")
	}
	s.metrics.timeouts.Inc()
	return http.StatusGatewayTimeout, fmt.Errorf("simulation exceeded the %v limit (stopped at t=%g of %g)",
		s.cfg.SimTimeout, at, horizon)
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if !s.readRequest(w, r, &req) {
		return
	}
	cfg, err := req.Config()
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}

	// The read lock lets submissions proceed concurrently while still
	// excluding Shutdown's close of the queue.
	s.queueMu.RLock()
	defer s.queueMu.RUnlock()
	if s.closed || s.draining.Load() {
		s.writeError(w, http.StatusServiceUnavailable, errors.New("draining"))
		return
	}
	j := s.store.newJob(cfg)
	select {
	case s.queue <- j:
		// Only an accepted job is stored: a refused one has no ID any
		// client could ask about. A worker may already be running j, but
		// no client can name it before the answer below.
		s.store.add(j)
		s.writeJSON(w, http.StatusAccepted, j.Status())
	default:
		s.shed(w)
	}
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j := s.store.get(r.PathValue("id"))
	if j == nil {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	s.writeJSON(w, http.StatusOK, j.Status())
}

// readRequest enforces the body bound and strict decoding; it answers
// the request itself on failure.
func (s *Server) readRequest(w http.ResponseWriter, r *http.Request, v any) bool {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBody))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			s.writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("body exceeds %d bytes", maxBody))
		} else {
			s.writeError(w, http.StatusBadRequest, err)
		}
		return false
	}
	if err := decodeStrict(body, v); err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return false
	}
	return true
}

// shed answers an over-capacity request: 429 plus a one-second
// Retry-After hint for whatever client is on the other end.
func (s *Server) shed(w http.ResponseWriter) {
	s.metrics.shed.Inc()
	w.Header().Set("Retry-After", retryAfter)
	s.writeError(w, http.StatusTooManyRequests, errors.New("server at capacity"))
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.cfg.Logf("serve: writing response: %v", err)
	}
}

type errorBody struct {
	Error string `json:"error"`
}

func (s *Server) writeError(w http.ResponseWriter, status int, err error) {
	s.writeJSON(w, status, errorBody{Error: err.Error()})
}
