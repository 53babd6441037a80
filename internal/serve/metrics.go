package serve

import (
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"rtdvs/internal/obs"
)

// serverMetrics holds the server's instruments. Histograms are
// registered per route at construction so the request path does one
// map-free Observe; only the (route, code) counter goes through a vec,
// since status codes are runtime values.
type serverMetrics struct {
	requests         *obs.CounterVec
	latency          map[string]*obs.Histogram
	inflight         *obs.Gauge
	shed             *obs.Counter
	timeouts         *obs.Counter
	shardCacheHits   *obs.Counter
	shardCacheMisses *obs.Counter
	batchSize        *obs.Histogram
	batchItems       *obs.CounterVec
}

// metricRoutes are the label values used for the per-route instruments;
// the middleware is always given one of these, never a raw URL path, so
// label cardinality stays fixed.
var metricRoutes = []string{"healthz", "readyz", "simulate", "simulateBatch", "sweep", "shard", "job", "metrics"}

func newServerMetrics(reg *obs.Registry, s *Server) *serverMetrics {
	m := &serverMetrics{
		requests: reg.CounterVec("rtdvs_http_requests_total",
			"HTTP requests served, by route and status code.", "route", "code"),
		latency:  make(map[string]*obs.Histogram, len(metricRoutes)),
		inflight: reg.Gauge("rtdvs_http_inflight_requests", "Requests currently being handled."),
		shed: reg.Counter("rtdvs_http_shed_total",
			"Requests shed with 429 because a capacity bound was hit."),
		timeouts: reg.Counter("rtdvs_http_timeout_total",
			"Runs stopped by a server time limit: simulate requests and shards answered 504, and batch items that carry the limit error."),
		shardCacheHits: reg.Counter("rtdvs_shard_cache_hits_total",
			"Shard requests answered from the worker's result cache."),
		shardCacheMisses: reg.Counter("rtdvs_shard_cache_misses_total",
			"Shard requests that missed the result cache."),
		batchSize: reg.Histogram("rtdvs_http_batch_size",
			"Item count of each /v1/simulate:batch request.",
			[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256}),
		batchItems: reg.CounterVec("rtdvs_http_batch_items_total",
			"Batch simulation items processed, by outcome.", "outcome"),
	}
	for _, route := range metricRoutes {
		m.latency[route] = reg.Histogram("rtdvs_http_request_duration_seconds",
			"Request latency by route.", nil, "route", route)
	}
	reg.GaugeFunc("rtdvs_sweep_queue_depth", "Sweep jobs waiting in the queue.",
		func() float64 { return float64(len(s.queue)) })
	reg.GaugeFunc("rtdvs_sim_slots_in_use", "Simulate concurrency slots currently held.",
		func() float64 { return float64(len(s.simSem)) })
	reg.GaugeFunc("rtdvs_shard_slots_in_use", "Shard concurrency slots currently held.",
		func() float64 { return float64(len(s.shardSem)) })
	return m
}

// statusRecorder captures the status code a handler writes so the
// middleware can label the request counter.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with the in-flight gauge, the latency
// histogram, and the (route, code) request counter.
func (s *Server) instrument(route string, next http.HandlerFunc) http.HandlerFunc {
	hist := s.metrics.latency[route]
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.metrics.inflight.Add(1)
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		defer func() {
			s.metrics.inflight.Add(-1)
			hist.Observe(time.Since(start).Seconds())
			s.metrics.requests.With(route, strconv.Itoa(rec.status)).Inc()
		}()
		next(rec, r)
	}
}

// handleMetrics serves the Prometheus text exposition of the server's
// registry.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", obs.ContentType)
	if err := s.registry.WriteText(w); err != nil {
		s.cfg.Logf("serve: writing metrics: %v", err)
	}
}

// DebugMux returns the opt-in debug handler: net/http/pprof plus a
// second /metrics mount. It is intentionally NOT part of Handler() —
// bind it to a loopback or otherwise-protected listener, never the
// public one, since profiles expose memory contents.
func (s *Server) DebugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}
