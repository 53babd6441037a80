// Package fabric is the coordinator half of the distributed sweep
// fabric: it splits a sweep's (utilization, seed) job grid into shards,
// dispatches them to worker processes over the internal/serve JSON API
// (POST /v1/shard), and folds the results in deterministic job order,
// so a sweep spread across N workers is DeepEqual-identical to the same
// sweep run locally with no workers at all.
//
// The determinism argument is layered. Per-job seeds are a pure
// function of (configuration, job index), so a job computes the same
// result wherever it runs; job results cross the wire as JSON, whose
// float64 round trip is exact; and the fold consumes results in grid
// order, not arrival order. On top of that invariant the coordinator
// is free to be aggressively fault-tolerant — retries with jittered
// exponential backoff, hedged dispatch of stragglers with
// first-result-wins dedup, worker ejection with health-probe
// re-admission, reassignment on worker death, and full degradation to
// local execution — none of which can change a single bit of the
// folded sweep.
package fabric

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"rtdvs/internal/backoff"
	"rtdvs/internal/experiment"
	"rtdvs/internal/obs"
	"rtdvs/internal/serve"
)

// Config describes one distributed sweep. The zero value of every
// tuning field selects the default noted on it.
type Config struct {
	// Sweep is the sweep to run, in the same request form POST /v1/sweep
	// accepts. It is validated locally before any shard is dispatched.
	Sweep serve.SweepRequest
	// Workers are the base URLs of the shard workers (rtdvs-serve
	// processes). Empty means run the whole sweep locally.
	Workers []string
	// ShardSize is the number of grid jobs per shard (default 4).
	ShardSize int
	// ShardTimeout caps one dispatch attempt of one shard (default 2m).
	ShardTimeout time.Duration
	// MaxAttempts bounds how many times a shard is dispatched remotely
	// before the coordinator stops offering it to workers and runs it
	// locally instead (default 3; hedges count as attempts).
	MaxAttempts int
	// HedgeAfter is how long a shard may be in flight before an idle
	// worker is given a duplicate of it (default 30s). The first result
	// wins; the loser is dropped.
	HedgeAfter time.Duration
	// EjectAfter is the number of consecutive dispatch failures after
	// which a worker is ejected from the rotation (default 3). An
	// ejected worker is probed via GET /healthz and re-admitted when it
	// answers.
	EjectAfter int
	// ProbeInterval paces the re-admission probes (default 2s).
	ProbeInterval time.Duration
	// Seed decorrelates the workers' backoff jitter. It has no effect
	// on results — determinism comes from the sweep seed.
	Seed int64
	// HTTP is the transport shared by all workers' clients (default
	// http.DefaultClient). Tests inject fault-carrying transports here.
	HTTP *http.Client
	// Logf receives operational log lines (default: discard).
	Logf func(format string, args ...any)
	// Registry receives the coordinator's metrics (default: a fresh
	// private registry). Each Run registers its instruments, so reuse a
	// registry only across coordinators, not across Runs.
	Registry *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.ShardSize <= 0 {
		c.ShardSize = 4
	}
	if c.ShardTimeout <= 0 {
		c.ShardTimeout = 2 * time.Minute
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.HedgeAfter <= 0 {
		c.HedgeAfter = 30 * time.Second
	}
	if c.EjectAfter <= 0 {
		c.EjectAfter = 3
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 2 * time.Second
	}
	if c.HTTP == nil {
		c.HTTP = http.DefaultClient
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
	return c
}

// metrics are the coordinator's instruments; see DESIGN.md §13 for how
// they narrate the retry/hedge/eject state machine.
type metrics struct {
	dispatched *obs.Counter
	retries    *obs.Counter
	hedged     *obs.Counter
	reassigned *obs.Counter
	deduped    *obs.Counter
	ejected    *obs.Counter
	readmitted *obs.Counter
	localRuns  *obs.Counter
	cacheHits  *obs.Counter
	healthy    *obs.Gauge
}

func newMetrics(reg *obs.Registry) *metrics {
	return &metrics{
		dispatched: reg.Counter("rtdvs_fabric_shards_dispatched_total",
			"Shard dispatch attempts, including retries and hedges."),
		retries: reg.Counter("rtdvs_fabric_shard_retries_total",
			"Shard dispatches beyond each shard's first attempt."),
		hedged: reg.Counter("rtdvs_fabric_shards_hedged_total",
			"Duplicate dispatches of in-flight straggler shards."),
		reassigned: reg.Counter("rtdvs_fabric_shards_reassigned_total",
			"Shards returned to the queue after a dispatch failure."),
		deduped: reg.Counter("rtdvs_fabric_dedup_dropped_total",
			"Shard results dropped because another dispatch won the race."),
		ejected: reg.Counter("rtdvs_fabric_workers_ejected_total",
			"Workers removed from the rotation after consecutive failures."),
		readmitted: reg.Counter("rtdvs_fabric_workers_readmitted_total",
			"Ejected workers re-admitted after a successful health probe."),
		localRuns: reg.Counter("rtdvs_fabric_shards_local_total",
			"Shards executed locally because remote dispatch was exhausted or degraded."),
		cacheHits: reg.Counter("rtdvs_fabric_worker_cache_hits_total",
			"Shard responses served from a worker's result cache."),
		healthy: reg.Gauge("rtdvs_fabric_healthy_workers",
			"Workers currently in the dispatch rotation."),
	}
}

// Run executes the sweep described by cfg across cfg.Workers and
// returns the folded result. With no workers it is exactly
// experiment.RunContext; with workers the result is bit-identical to
// that, whatever faults the dispatch layer weathered along the way.
func Run(ctx context.Context, cfg Config) (*experiment.Sweep, error) {
	f, err := newFabric(cfg)
	if err != nil {
		return nil, err
	}
	return f.run(ctx)
}

// fabric is one coordinator run's state.
type fabric struct {
	cfg    Config
	expCfg experiment.Config
	m      *metrics
	sched  *scheduler
}

func newFabric(cfg Config) (*fabric, error) {
	cfg = cfg.withDefaults()
	expCfg, err := cfg.Sweep.Config()
	if err != nil {
		return nil, err
	}
	return &fabric{cfg: cfg, expCfg: expCfg, m: newMetrics(cfg.Registry)}, nil
}

func (f *fabric) run(ctx context.Context) (*experiment.Sweep, error) {
	if len(f.cfg.Workers) == 0 {
		return experiment.RunContext(ctx, f.expCfg)
	}
	njobs, err := experiment.NumJobs(f.expCfg)
	if err != nil {
		return nil, err
	}
	if njobs == 0 {
		return experiment.RunContext(ctx, f.expCfg)
	}

	// Contiguous shards over the flat job grid.
	var shards [][]int
	for lo := 0; lo < njobs; lo += f.cfg.ShardSize {
		hi := lo + f.cfg.ShardSize
		if hi > njobs {
			hi = njobs
		}
		jobs := make([]int, 0, hi-lo)
		for j := lo; j < hi; j++ {
			jobs = append(jobs, j)
		}
		shards = append(shards, jobs)
	}
	f.sched = newScheduler(shards, len(f.cfg.Workers), f.cfg.MaxAttempts, f.cfg.HedgeAfter)
	f.m.healthy.Set(float64(len(f.cfg.Workers)))

	// Remote phase: one goroutine per worker pulls shards until nothing
	// remote-eligible remains. Worker failures never fail the sweep —
	// the local phase below picks up whatever remote dispatch could not
	// finish.
	var wg sync.WaitGroup
	for i, url := range f.cfg.Workers {
		wg.Add(1)
		go func(idx int, url string) {
			defer wg.Done()
			f.workerLoop(ctx, idx, url)
		}(i, url)
	}
	wg.Wait()

	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Local phase: graceful degradation. Any shard that never completed
	// remotely — attempts exhausted, every worker ejected, or no worker
	// ever reachable — runs here, bit-identical by construction.
	for idx, jobs := range shards {
		if f.sched.isDone(idx) {
			continue
		}
		f.m.localRuns.Inc()
		f.cfg.Logf("fabric: running shard %d locally (%d jobs)", idx, len(jobs))
		res, err := experiment.RunJobs(ctx, f.expCfg, jobs)
		if err != nil {
			return nil, fmt.Errorf("fabric: local execution of shard %d: %w", idx, err)
		}
		f.sched.complete(idx, res)
	}

	var all []experiment.JobResult
	for idx := range shards {
		all = append(all, f.sched.results[idx]...)
	}
	return experiment.FoldJobs(f.expCfg, all)
}

// workerLoop pulls shards for one worker until the scheduler reports
// no remote-eligible work, ejecting and re-admitting the worker as its
// health dictates.
func (f *fabric) workerLoop(ctx context.Context, idx int, url string) {
	// The client makes one attempt per call, so each dispatch is one
	// POST /v1/shard and this loop owns every retry: attempt accounting,
	// backoff and reassignment.
	client := serve.NewClient(url)
	client.HTTP = f.cfg.HTTP
	bo := backoff.New(f.cfg.Seed ^ int64(idx+1)<<16)
	consecFails := 0

	for {
		sidx, jobs, hedge, ok := f.sched.next(ctx, idx)
		if !ok {
			return
		}
		f.m.dispatched.Inc()
		if hedge {
			f.m.hedged.Inc()
		}

		dctx, cancel := context.WithTimeout(ctx, f.cfg.ShardTimeout)
		resp, err := client.Shard(dctx, serve.ShardRequest{Sweep: f.cfg.Sweep, Jobs: jobs})
		cancel()
		if err != nil {
			if ctx.Err() != nil {
				f.sched.fail(sidx, idx)
				return
			}
			consecFails++
			f.cfg.Logf("fabric: worker %s: shard %d failed (consecutive %d): %v", url, sidx, consecFails, err)
			requeued := f.sched.fail(sidx, idx)
			if requeued {
				f.m.reassigned.Inc()
				f.m.retries.Inc()
			}
			if consecFails >= f.cfg.EjectAfter {
				f.m.ejected.Inc()
				f.m.healthy.Add(-1)
				f.cfg.Logf("fabric: ejecting worker %s after %d consecutive failures", url, consecFails)
				if f.sched.workerEjected() {
					// Every worker is out: stop probing, let the run
					// degrade to local execution.
					return
				}
				if !f.probeUntilHealthy(ctx, client, url) {
					return
				}
				f.sched.workerReadmitted()
				f.m.readmitted.Inc()
				f.m.healthy.Add(1)
				f.cfg.Logf("fabric: re-admitting worker %s", url)
				consecFails = 0
				continue
			}
			// Jittered exponential backoff before this worker takes more
			// work; other workers proceed meanwhile.
			if bo.Sleep(ctx, consecFails) != nil {
				return
			}
			continue
		}
		consecFails = 0
		if resp.Cached {
			f.m.cacheHits.Inc()
		}
		if !f.sched.complete(sidx, resp.Results) {
			f.m.deduped.Inc()
		}
	}
}

// probeUntilHealthy polls the worker's health endpoint until it
// answers, the scheduler runs out of remote work, or ctx expires. It
// reports whether the worker should rejoin the rotation.
func (f *fabric) probeUntilHealthy(ctx context.Context, client *serve.Client, url string) bool {
	t := time.NewTicker(f.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return false
		case <-t.C:
		}
		if !f.sched.hasRemoteWork() {
			return false
		}
		pctx, cancel := context.WithTimeout(ctx, f.cfg.ProbeInterval)
		err := client.Healthz(pctx)
		cancel()
		if err == nil {
			return true
		}
	}
}
