package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"

	"rtdvs/internal/checkpoint"
	"rtdvs/internal/experiment"
)

// ShardRequest is the body of POST /v1/shard: run a subset of a sweep's
// job grid synchronously and return the per-job results. It is the
// worker half of the distributed sweep fabric — the coordinator
// (internal/fabric) splits a sweep into shards, posts each to a worker,
// and folds the results deterministically.
type ShardRequest struct {
	// Sweep is the full sweep configuration. Every worker receives the
	// identical configuration; only Jobs varies per shard. Per-job seeds
	// are a pure function of (configuration, job index), so where a job
	// runs cannot change what it computes.
	Sweep SweepRequest `json:"sweep"`
	// Jobs lists the flat job indexes (ui*sets+si) of this shard.
	Jobs []int `json:"jobs"`
}

// ShardResponse carries a shard's results back to the coordinator.
type ShardResponse struct {
	Results []experiment.JobResult `json:"results"`
	// Cached reports that the response was served from the worker's
	// result cache rather than recomputed — a retried or hedged shard
	// whose first execution already completed.
	Cached bool `json:"cached,omitempty"`
}

// shardKey is the content address of a shard result: the sweep's
// canonical header plus the shard's job list, fingerprinted with the
// same definition the checkpoint journal uses for "same configuration".
type shardKey struct {
	Header experiment.SweepHeader `json:"header"`
	Jobs   []int                  `json:"jobs"`
}

// shardCache is a bounded FIFO of completed shard results. Retries and
// hedges make duplicate shard executions routine, and shard results are
// deterministic, so caching by content address turns every duplicate
// into a cheap replay. FIFO (not LRU) keeps eviction O(1) and is
// adequate: a sweep's shards are each requested a handful of times in
// close succession, then never again.
type shardCache struct {
	mu    sync.Mutex
	cap   int
	order []string // insertion order, oldest first
	m     map[string][]experiment.JobResult
}

func newShardCache(capacity int) *shardCache {
	return &shardCache{cap: capacity, m: make(map[string][]experiment.JobResult, capacity)}
}

func (c *shardCache) get(key string) ([]experiment.JobResult, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	res, ok := c.m[key]
	return res, ok
}

func (c *shardCache) put(key string, res []experiment.JobResult) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.m[key]; ok {
		return
	}
	for len(c.m) >= c.cap && len(c.order) > 0 {
		oldest := c.order[0]
		c.order = c.order[1:]
		delete(c.m, oldest)
	}
	c.m[key] = res
	c.order = append(c.order, key)
}

func (s *Server) handleShard(w http.ResponseWriter, r *http.Request) {
	var req ShardRequest
	if !s.readRequest(w, r, &req) {
		return
	}
	cfg, err := req.Sweep.Config()
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	if len(req.Jobs) == 0 {
		s.writeError(w, http.StatusBadRequest, errors.New("serve: shard has no jobs"))
		return
	}
	njobs, err := experiment.NumJobs(cfg)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	for _, j := range req.Jobs {
		if j < 0 || j >= njobs {
			s.writeError(w, http.StatusBadRequest,
				fmt.Errorf("serve: job index %d outside the grid [0, %d)", j, njobs))
			return
		}
	}
	if s.draining.Load() {
		s.writeError(w, http.StatusServiceUnavailable, errors.New("draining"))
		return
	}

	header, err := experiment.Header(cfg)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	key, err := checkpoint.Fingerprint(shardKey{Header: header, Jobs: req.Jobs})
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, err)
		return
	}
	if res, ok := s.shardCache.get(key); ok {
		s.metrics.shardCacheHits.Inc()
		s.writeJSON(w, http.StatusOK, ShardResponse{Results: res, Cached: true})
		return
	}
	s.metrics.shardCacheMisses.Inc()

	// Bounded concurrency, same shape as /v1/simulate: a free slot or an
	// immediate 429, which the coordinator counts as a failed dispatch.
	select {
	case s.shardSem <- struct{}{}:
		defer func() { <-s.shardSem }()
	default:
		s.shed(w)
		return
	}

	// Track the run so Shutdown can wait for in-flight shard work, and
	// tie its context to both the request (client gone → stop) and the
	// server's base context (Shutdown deadline hit → stop).
	if !s.beginShard() {
		s.writeError(w, http.StatusServiceUnavailable, errors.New("draining"))
		return
	}
	defer s.inflight.Done()
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.ShardTimeout)
	defer cancel()
	stop := context.AfterFunc(s.baseCtx, cancel)
	defer stop()

	cfg.Metrics = s.sweepMetrics
	results, err := experiment.RunJobs(ctx, cfg, req.Jobs)
	if err != nil {
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			s.metrics.timeouts.Inc()
			s.writeError(w, http.StatusGatewayTimeout,
				fmt.Errorf("shard exceeded the %v limit", s.cfg.ShardTimeout))
		case errors.Is(err, context.Canceled):
			s.writeError(w, StatusClientClosedRequest, errors.New("client closed request"))
		default:
			s.writeError(w, http.StatusBadRequest, err)
		}
		return
	}
	s.shardCache.put(key, results)
	s.writeJSON(w, http.StatusOK, ShardResponse{Results: results})
}

// Shard runs one shard synchronously on the worker.
func (c *Client) Shard(ctx context.Context, req ShardRequest) (*ShardResponse, error) {
	var res ShardResponse
	if err := c.call(ctx, "POST", "/v1/shard", req, &res); err != nil {
		return nil, err
	}
	return &res, nil
}
