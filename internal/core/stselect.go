package core

import (
	"rtdvs/internal/fpx"
	"rtdvs/internal/machine"
	"rtdvs/internal/sched"
	"rtdvs/internal/task"
)

// stSelect is the stochastic discrete-frequency-selection policy, after
// Berten et al.'s expected-energy-optimal frequency selection for
// frame-based stochastic tasks.
//
// Where ccEDF reserves each released task's full worst case and stEDF
// reserves a learned quantile, stSelect plans *offline* (at Attach)
// against a declared per-task demand distribution: for each task it
// evaluates, on the platform's discrete frequency grid, the reservation
// budget b minimizing expected energy
//
//	E[min(C, b)]·e(f_run(b)) + (E[C] − E[min(C, b)])·e(f_esc)
//
// (see task.OptimalBudget), assuming the rest of the set runs at its
// expected utilization. At release the task reserves its planned budget;
// an invocation that exceeds the budget escalates its reservation to the
// declared worst case on the spot, and completion lowers the reservation
// to the cycles actually consumed, cycle-conserving style. Both come
// from the budgeted reservation (ccedf.go) stSelect shares with stEDF.
//
// The planning model comes from SetDistributions (the substrates wire it
// automatically when the run's exec model exposes task.Distributions).
// Without a model the planner falls back to full worst-case budgets and
// the policy degenerates to ccEDF behavior.
//
// The deadline guarantee is statistical — an invocation beyond its
// planned budget can miss if the lost capacity mattered — so
// Guaranteed() is always false when any budget sits below the worst
// case.
type stSelect struct {
	budgeted
	dists task.Distributions // planning model; nil plans full worst cases

	plan  []float64 // planned reservation budget per task (cycles)
	means []float64 // Attach-time scratch: expected utilization per task
}

// StochasticSelect returns the stSelect policy planning against d. A nil
// model reserves full worst cases until SetDistributions provides one.
func StochasticSelect(d task.Distributions) Policy { return &stSelect{dists: d} }

// DistributionPlanner is implemented by policies that plan against
// per-task demand distributions. The execution substrates call
// SetDistributions before Attach when the run's exec model exposes
// task.Distributions, so the policy plans against the exact model
// driving the simulation.
type DistributionPlanner interface {
	SetDistributions(d task.Distributions)
}

// SetDistributions implements DistributionPlanner. It takes effect at
// the next Attach.
func (p *stSelect) SetDistributions(d task.Distributions) { p.dists = d }

func (p *stSelect) Name() string { return "stSelect" }

func (p *stSelect) Attach(ts *task.Set, m *machine.Spec) error {
	if err := p.attach(ts, m); err != nil {
		return err
	}
	n := ts.Len()
	p.plan = growZeroed(p.plan, n)
	p.means = growZeroed(p.means, n)

	// Expected utilization of the whole set under the planning model —
	// the background load each task's budget optimization assumes.
	var meanU float64
	for i := 0; i < n; i++ {
		t := ts.Task(i)
		p.means[i] = t.Utilization()
		if p.dists != nil {
			if d := p.dists.TaskDist(i); d != nil {
				p.means[i] = d.Mean() * t.Utilization()
			}
		}
		meanU += p.means[i]
	}
	allWorstCase := true
	for i := 0; i < n; i++ {
		t := ts.Task(i)
		var d task.Dist
		if p.dists != nil {
			d = p.dists.TaskDist(i)
		}
		bp := task.OptimalBudget(d, t.WCET, t.Period, meanU-p.means[i], m)
		p.plan[i] = bp.Budget
		if fpx.Lt(bp.Budget, t.WCET) {
			allWorstCase = false
		}
	}
	// Full worst-case budgets degenerate to ccEDF, whose guarantee is the
	// classical EDF one; any partial budget makes it statistical.
	p.guaranteed = allWorstCase && sched.EDFTest(ts, 1)
	p.reserveBudgets()
	return nil
}

// OnRelease reserves the planned expected-energy-optimal budget.
//
//rtdvs:hotpath
func (p *stSelect) OnRelease(_ System, i int) { p.charge(i, p.plan[i]) }

// PlannedBudget returns the expected-energy-optimal reservation the
// planner chose for task i (cycles; the declared WCET when no
// distribution was available). It exists for tests and diagnostics.
func (p *stSelect) PlannedBudget(i int) float64 {
	if i < 0 || i >= len(p.plan) {
		return 0
	}
	return p.plan[i]
}
