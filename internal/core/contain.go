package core

import (
	"math"

	"rtdvs/internal/fpx"
	"rtdvs/internal/machine"
	"rtdvs/internal/sched"
	"rtdvs/internal/task"
)

// OverrunAware is implemented by policies that want to be told the
// moment a job's execution exhausts its declared worst-case budget while
// work remains — the earliest point a WCET overrun is observable. The
// execution substrates (the simulator and the RTOS kernel) split the
// running segment at budget exhaustion when fault injection is active,
// so the notification arrives with no detection latency beyond the
// scheduler's own granularity.
type OverrunAware interface {
	// OnOverrun reports that task i's current invocation has consumed
	// its declared WCET and is still incomplete.
	OnOverrun(sys System, i int)
}

// ContainmentReporter is implemented by policies that contain overruns;
// the substrates and the procfs layer surface its counters.
type ContainmentReporter interface {
	// Containments returns how many overrunning jobs have been contained
	// since Attach.
	Containments() int
	// TaskContainments returns the containment count for task index i.
	TaskContainments(i int) int
	// ContainedNow reports whether any job is currently being contained.
	ContainedNow() bool
	// ContainmentLatency returns the summed time (ms) spent inside
	// containment — budget exhaustion to job completion (or abort) — and
	// the number of containments that contributed. Containments entered
	// via self-detection (no substrate timestamp) are excluded.
	ContainmentLatency() (total float64, n int)
}

// contained wraps an inner RT-DVS policy with overrun containment, the
// graceful-degradation response to WCET overruns: the moment a job
// exhausts its declared worst-case budget without completing, the
// processor falls back to full speed and stays there until the offending
// job completes (or its invocation is aborted at the deadline), then
// normal DVS resumes. Under a fault-free workload the wrapper is
// behaviorally identical to the inner policy.
//
// A containment normally ends at the task's own completion or next
// release. When neither arrives — the kernel shed or removed the task,
// or a sporadic source went quiet after an aborted job — the escalation
// used to be sticky: Point() pinned f_max forever on behalf of a job
// that could no longer be running (the substrate aborts at the
// deadline). recoverStale fixes that with a hysteresis: any callback can
// release a containment whose job deadline lies more than one period of
// the task in the past.
//
// The inner policy's model only covers demand up to the declared WCET,
// so the wrapper forwards at most WCET worth of execution progress and
// completion usage per invocation — beyond-budget cycles are the
// containment layer's problem, not the inner bookkeeping's. This keeps
// e.g. ccEDF's ΣU_i within the admission bound even while a contained
// job runs arbitrarily far past its reservation.
type contained struct {
	inner Policy
	name  string       // inner.Name() + "+contain", fixed at construction
	tp    []taskParams // the attached set's parameters
	m     *machine.Spec

	used  []float64 // cycles consumed by the current invocation, per task
	over  []bool    // task currently overrunning (containment active)
	perTk []int     // containments per task
	total int       // containments since Attach
	nOver int       // tasks currently contained

	// overAt is when the current containment started (NaN when unknown:
	// self-detected containments carry no substrate timestamp); latSum
	// and latN accumulate containment latency for ContainmentLatency.
	overAt []float64
	latSum float64
	latN   int

	// dl pins each task's current-invocation deadline at release (NaN
	// before the first release). The substrate's Deadline() keeps moving
	// for inactive tasks, so stale-containment recovery needs the
	// wrapper's own copy of the deadline the contained job actually had.
	dl []float64
}

// containRecoverHysteresis scales the stale-containment recovery delay:
// a containment is released once now exceeds the contained job's
// deadline by this many periods of its task. One full period is
// conservatively late — the substrate aborted the job at its deadline,
// so the escalation serves nobody after that — while still letting the
// ordinary settle paths (completion, next release) do the accounting in
// every live-task schedule.
const containRecoverHysteresis = 1.0

// Contained wraps inner with overrun containment. The wrapped policy's
// name is the inner name with a "+contain" suffix.
func Contained(inner Policy) Policy {
	return &contained{inner: inner, name: inner.Name() + "+contain"}
}

func (p *contained) Name() string          { return p.name }
func (p *contained) Scheduler() sched.Kind { return p.inner.Scheduler() }
func (p *contained) Guaranteed() bool      { return p.inner.Guaranteed() }

// SetDistributions forwards the planning model to the wrapped policy
// when it plans against distributions, so "stSelect+contain" sees the
// same model "stSelect" would.
func (p *contained) SetDistributions(d task.Distributions) {
	if dp, ok := p.inner.(DistributionPlanner); ok {
		dp.SetDistributions(d)
	}
}

func (p *contained) Attach(ts *task.Set, m *machine.Spec) error {
	if err := p.inner.Attach(ts, m); err != nil {
		return err
	}
	p.tp, p.m = cacheParams(p.tp, ts), m
	n := ts.Len()
	p.used = growZeroed(p.used, n)
	p.over = growZeroed(p.over, n)
	p.perTk = growZeroed(p.perTk, n)
	p.total, p.nOver = 0, 0
	p.overAt = growZeroed(p.overAt, n)
	p.dl = growZeroed(p.dl, n)
	for i := range p.overAt {
		p.overAt[i] = math.NaN()
		p.dl[i] = math.NaN()
	}
	p.latSum, p.latN = 0, 0
	return nil
}

// recoverStale releases containments whose job can no longer exist: the
// pinned deadline plus the hysteresis period has passed. Latency is
// folded up to the deadline — the abort point — not to now, so a late
// sweep does not inflate the containment-latency metric.
func (p *contained) recoverStale(sys System) {
	if p.nOver == 0 {
		return
	}
	now := sys.Now()
	for i := range p.over {
		if !p.over[i] || math.IsNaN(p.dl[i]) {
			continue
		}
		if now <= p.dl[i]+containRecoverHysteresis*p.tp[i].period {
			continue
		}
		if !math.IsNaN(p.overAt[i]) && p.dl[i] > p.overAt[i] {
			p.latSum += p.dl[i] - p.overAt[i]
			p.latN++
		}
		p.overAt[i] = math.NaN()
		p.release(i)
	}
}

// contain flips task i into containment (idempotently).
func (p *contained) contain(i int) {
	if p.over[i] {
		return
	}
	p.over[i] = true
	p.perTk[i]++
	p.total++
	p.nOver++
}

// release clears task i's containment (idempotently).
func (p *contained) release(i int) {
	if !p.over[i] {
		return
	}
	p.over[i] = false
	p.nOver--
}

// settle ends task i's containment at the current time, folding the
// containment span into the latency accumulators when the start is known.
func (p *contained) settle(sys System, i int) {
	if p.over[i] && !math.IsNaN(p.overAt[i]) {
		p.latSum += sys.Now() - p.overAt[i]
		p.latN++
	}
	p.overAt[i] = math.NaN()
	p.release(i)
}

// OnOverrun implements OverrunAware: the substrate observed budget
// exhaustion with work remaining.
func (p *contained) OnOverrun(sys System, i int) {
	if !p.over[i] {
		p.overAt[i] = sys.Now()
	}
	p.contain(i)
}

func (p *contained) OnRelease(sys System, i int) {
	p.recoverStale(sys)
	// A new release supersedes whatever the previous invocation did: if
	// it was still contained (aborted at its deadline without a
	// completion callback), the containment ends here.
	p.settle(sys, i)
	p.used[i] = 0
	p.dl[i] = sys.Deadline(i)
	p.inner.OnRelease(sys, i)
}

func (p *contained) OnCompletion(sys System, i int, used float64) {
	p.recoverStale(sys)
	p.settle(sys, i)
	// Clamp to the declared bound: the inner policy reserved at most
	// C_i/P_i, and crediting more would push e.g. ccEDF's utilization
	// bookkeeping past the admission test it was verified against.
	if wcet := p.tp[i].wcet; used > wcet {
		used = wcet
	}
	p.inner.OnCompletion(sys, i, used)
}

func (p *contained) OnExecute(i int, cycles float64) {
	wcet := p.tp[i].wcet
	prev := p.used[i]
	p.used[i] += cycles
	// Self-detection fallback for substrates without OverrunAware
	// support: strictly beyond-budget progress means the job is still
	// running past its worst case. (Exactly-at-budget progress is a
	// normal completion about to be reported, not an overrun.)
	if fpx.GtTol(p.used[i], wcet, fpx.Tiny) {
		p.contain(i)
	}
	// Forward only the within-budget share of the progress.
	if prev >= wcet {
		return
	}
	if fwd := wcet - prev; cycles > fwd {
		cycles = fwd
	}
	p.inner.OnExecute(i, cycles)
}

// Point escalates to full speed while any job is contained; otherwise
// the inner policy decides.
func (p *contained) Point() machine.OperatingPoint {
	if p.nOver > 0 {
		return p.m.Max()
	}
	return p.inner.Point()
}

// IdlePoint forwards to the inner policy: while a job is contained it is
// by definition runnable, so the scheduler never idles mid-containment.
func (p *contained) IdlePoint() machine.OperatingPoint { return p.inner.IdlePoint() }

// Containments implements ContainmentReporter.
func (p *contained) Containments() int { return p.total }

// TaskContainments implements ContainmentReporter.
func (p *contained) TaskContainments(i int) int {
	if i < 0 || i >= len(p.perTk) {
		return 0
	}
	return p.perTk[i]
}

// ContainedNow implements ContainmentReporter.
func (p *contained) ContainedNow() bool { return p.nOver > 0 }

// ContainmentLatency implements ContainmentReporter.
func (p *contained) ContainmentLatency() (float64, int) { return p.latSum, p.latN }

// ReservedUtilization forwards the inner policy's bookkeeping when it
// has any, so the simulator's utilization invariant stays live through
// the wrapper; a wrapped policy without bookkeeping reports the trivial
// bound 0 (nothing is asserted beyond ≥ 0).
func (p *contained) ReservedUtilization() float64 {
	if ur, ok := p.inner.(interface{ ReservedUtilization() float64 }); ok {
		return ur.ReservedUtilization()
	}
	return 0
}
