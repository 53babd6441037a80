package core

import (
	"rtdvs/internal/fpx"
	"rtdvs/internal/machine"
	"rtdvs/internal/sched"
	"rtdvs/internal/task"
)

// reservation is the cycle-conserving mechanism of Section 2.4 (Figure
// 4), shared by ccEDF, gangCCEDF, stEDF and stSelect.
//
// It tracks a per-task utilization U_i. When task i is released, the
// conservative worst case must be assumed, so U_i = C_i/P_i; when it
// completes after consuming cc_i cycles, U_i is lowered to cc_i/P_i until
// the next release. At every release and completion the operating
// frequency is set to the lowest fi covering ΣU_j on the attached cores
// (gangRequired: ΣU_j ≤ fi on one core). Because a completed task cannot
// exceed its (lowered) bound before its next release, the schedulability
// test keeps holding and deadline guarantees are preserved.
type reservation struct {
	base
	util []float64 // U_i, per task
	// sum is the running ΣU_i, maintained by per-event deltas so frequency
	// selection (Figure 4's select_frequency: lowest fi with ΣU_j ≤ fi/fm)
	// is O(1) per release/completion. ReservedUtilization deliberately
	// re-sums from scratch, so the invariant checker audits this
	// bookkeeping on every event.
	sum    float64
	lmax   float64 // largest worst-case per-task utilization, fixed per set
	ncores int     // cores sharing the rail
}

// reserve charges every task of the attached set its worst case — the
// static starting point before the first release — on ncores cores, and
// selects the rail frequency.
func (p *reservation) reserve(ncores int) {
	p.ncores = ncores
	p.util = growZeroed(p.util, p.ts.Len())
	p.sum, p.lmax = 0, 0
	for i := range p.util {
		u := p.tp[i].util
		p.util[i] = u
		p.sum += u
		if u > p.lmax {
			p.lmax = u
		}
	}
	p.selectFrequency()
}

// adjust moves U_i to u and updates the running sum. It and
// selectFrequency are separate steps, as in Figure 4, so that each
// inlines into the hooks and a hook costs one call.
//
//rtdvs:hotpath
func (p *reservation) adjust(i int, u float64) {
	p.sum += u - p.util[i]
	p.util[i] = u
}

// selectFrequency is Figure 4's select_frequency: the lowest frequency
// covering the reserved utilization on the attached cores.
//
//rtdvs:hotpath
func (p *reservation) selectFrequency() {
	p.setLowestAtLeast(gangRequired(p.sum, p.lmax, p.ncores))
}

func (p *reservation) Scheduler() sched.Kind { return sched.EDF }

//rtdvs:hotpath
func (p *reservation) OnRelease(_ System, i int) {
	p.adjust(i, p.tp[i].util)
	p.selectFrequency()
}

//rtdvs:hotpath
func (p *reservation) OnCompletion(_ System, i int, used float64) {
	p.adjust(i, used/p.tp[i].period)
	p.selectFrequency()
}

func (p *reservation) OnExecute(int, float64) {}

// ReservedUtilization reports ΣU_i, the capacity the policy currently
// reserves. For an admitted set it never exceeds the cores' full-speed
// capacity — the simulator's invariant checker asserts this after every
// callback. It intentionally re-sums util rather than returning the
// running sum: an independent computation is what makes the invariant
// an audit of the incremental bookkeeping instead of a tautology.
func (p *reservation) ReservedUtilization() float64 {
	var sum float64
	for _, u := range p.util {
		sum += u
	}
	return sum
}

// IdlePoint drops to the platform minimum while halted: the dynamic
// schemes switch to the lowest frequency and voltage during idle
// (Section 3.2).
func (p *reservation) IdlePoint() machine.OperatingPoint { return p.m.Min() }

// budgeted is the reservation of the statistical policies (stEDF,
// stSelect): a release reserves a budget that may sit below the worst
// case, and an invocation running past its budget escalates to the
// worst case on the spot, bounding the exposure to the window before
// the next scheduling event.
type budgeted struct {
	reservation
	budget []float64 // reserved cycles for the current invocation
	used   []float64 // cycles consumed this invocation
}

// reserveBudgets sizes the budgets and charges every task its worst
// case on one core.
func (p *budgeted) reserveBudgets() {
	p.budget = growZeroed(p.budget, p.ts.Len())
	p.used = growZeroed(p.used, p.ts.Len())
	p.reserve(1)
}

// charge reserves b cycles for task i's fresh invocation.
//
//rtdvs:hotpath
func (p *budgeted) charge(i int, b float64) {
	p.budget[i] = b
	p.used[i] = 0
	p.adjust(i, b/p.tp[i].period)
	p.selectFrequency()
}

// OnExecute watches for budget overruns: the moment an invocation is seen
// to exceed its reservation, the task's full worst case is restored so
// capacity planning is conservative again.
//
//rtdvs:hotpath
func (p *budgeted) OnExecute(i int, cycles float64) {
	p.used[i] += cycles
	if fpx.GtTol(p.used[i], p.budget[i], fpx.Tiny) {
		wcet := p.tp[i].wcet
		if fpx.Ne(p.budget[i], wcet) {
			p.budget[i] = wcet
			p.adjust(i, p.tp[i].util)
			p.selectFrequency()
		}
	}
}

// ccEDF implements cycle-conserving EDF (Section 2.4, Figure 4): the
// reservation on one core, admitted by the EDF utilization test.
type ccEDF struct{ reservation }

// CycleConservingEDF returns the cycle-conserving EDF policy.
func CycleConservingEDF() Policy { return &ccEDF{} }

func (p *ccEDF) Name() string { return "ccEDF" }

func (p *ccEDF) Attach(ts *task.Set, m *machine.Spec) error {
	if err := p.attach(ts, m); err != nil {
		return err
	}
	p.guaranteed = sched.EDFTest(ts, 1)
	p.reserve(1)
	return nil
}

// PhaseRobust marks ccEDF as safe under arbitrary phasing: the selected
// frequency always covers every task's reserved utilization, and a
// completed task cannot exceed its lowered reservation before its next
// release.
func (p *ccEDF) PhaseRobust() {}
