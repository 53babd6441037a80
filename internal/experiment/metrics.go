package experiment

import "rtdvs/internal/obs"

// Metrics reports sweep progress to an obs registry.
// Construct once per process with NewMetrics and share across sweeps —
// counters accumulate. All methods are safe on a nil receiver (metrics
// disabled) and safe for concurrent workers: each update is one atomic
// add, so the harness's bit-identical fold order is unaffected.
type Metrics struct {
	jobsScheduled *obs.Counter
	jobsDone      *obs.Counter
	jobsReplayed  *obs.Counter
	simRuns       *obs.Counter
	misses        *obs.Counter
}

// NewMetrics registers the experiment harness's instruments on reg.
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		jobsScheduled: reg.Counter("rtdvs_sweep_jobs_scheduled_total",
			"Sweep jobs (utilization-or-rate, set) scheduled for execution."),
		jobsDone: reg.Counter("rtdvs_sweep_jobs_done_total",
			"Sweep jobs completed by a worker this process."),
		jobsReplayed: reg.Counter("rtdvs_sweep_jobs_replayed_total",
			"Sweep jobs restored from a checkpoint journal instead of recomputed."),
		simRuns: reg.Counter("rtdvs_sweep_sim_runs_total",
			"Individual policy simulations executed by sweep workers."),
		misses: reg.Counter("rtdvs_sweep_misses_total",
			"Deadline misses observed across all sweep simulations."),
	}
}

func (m *Metrics) jobsPlanned(n int) {
	if m != nil {
		m.jobsScheduled.Add(float64(n))
	}
}

func (m *Metrics) jobDone() {
	if m != nil {
		m.jobsDone.Inc()
	}
}

func (m *Metrics) jobReplayed() {
	if m != nil {
		m.jobsReplayed.Inc()
	}
}

func (m *Metrics) simRun(missCount int) {
	if m != nil {
		m.simRuns.Inc()
		m.misses.Add(float64(missCount))
	}
}
