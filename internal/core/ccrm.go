package core

import (
	"rtdvs/internal/fpx"
	"rtdvs/internal/machine"
	"rtdvs/internal/sched"
	"rtdvs/internal/task"
)

// ccRM implements cycle-conserving RM (Section 2.4, Figure 6).
//
// The RM schedulability test is O(n²), too expensive to re-run at every
// scheduling point, so this policy takes a pacing approach instead: the
// statically-scaled RM schedule is provably correct even in the worst
// case, and as long as the system makes equal or better progress for all
// tasks than that worst-case schedule would, deadlines are met regardless
// of the actual operating frequencies.
//
// At each task release, the cycles the statically-scaled schedule would
// retire by the next deadline in the system — s_j = (D_next − now)·f_static
// — are allocated to tasks in RM priority order (d_i per task, bounded by
// the task's remaining worst-case cycles c_left_i). The frequency is then
// set just high enough to execute Σd_i cycles by that deadline. Execution
// decrements c_left_i and d_i; completion zeroes both and re-selects the
// frequency, which is where the surplus from early completions turns into
// savings.
type ccRM struct {
	base
	fstatic float64   // statically-scaled RM frequency (pacing target)
	cleft   []float64 // worst-case remaining cycles, per task
	d       []float64 // cycles allotted before the next deadline, per task
	rmOrder []int     // task indices sorted by period (RM priority)
}

// CycleConservingRM returns the cycle-conserving RM policy.
func CycleConservingRM() Policy { return &ccRM{} }

func (p *ccRM) Name() string          { return "ccRM" }
func (p *ccRM) Scheduler() sched.Kind { return sched.RM }

func (p *ccRM) Attach(ts *task.Set, m *machine.Spec) error {
	if err := p.attach(ts, m); err != nil {
		return err
	}
	staticOp, ok := staticPoint(ts, m, sched.RM)
	p.fstatic = staticOp.Freq
	p.guaranteed = ok
	n := ts.Len()
	p.cleft = sched.GrowZeroed(p.cleft, n)
	p.d = sched.GrowZeroed(p.d, n)
	// RM priority order: period ascending, ties by index — the same
	// ordering ts.ByPeriod() returns, rebuilt in place so a reused
	// instance does not reallocate.
	p.rmOrder = sched.GrowZeroed(p.rmOrder, n)
	for i := range p.rmOrder {
		p.rmOrder[i] = i
	}
	for i := 1; i < n; i++ {
		v := p.rmOrder[i]
		j := i
		for j > 0 && p.rmBefore(v, p.rmOrder[j-1]) {
			p.rmOrder[j] = p.rmOrder[j-1]
			j--
		}
		p.rmOrder[j] = v
	}
	// Until the first releases arrive nothing is runnable; rest at the
	// static point so a system that idles before time zero behaves like
	// the static schedule.
	p.point = staticOp
	return nil
}

// rmBefore is the RM priority order: shorter period first, ties by
// ascending task index (matching task.Set.ByPeriod's stable sort).
func (p *ccRM) rmBefore(a, b int) bool {
	pa, pb := p.tp[a].period, p.tp[b].period
	switch {
	case pa < pb:
		return true
	case pa > pb:
		return false
	}
	return a < b
}

// nextDeadline returns the earliest current deadline in the system: the
// first key of the system's deadline order when it keeps one, a scan of
// every deadline otherwise. Because deadline = end of period = next
// release, this is well defined for completed tasks too.
//
//rtdvs:hotpath
func (p *ccRM) nextDeadline(sys System) float64 {
	if _, key := deadlineOrder(sys); key != nil {
		return key[0]
	}
	nd := sys.Deadline(0)
	for i := 1; i < p.ts.Len(); i++ {
		if d := sys.Deadline(i); d < nd {
			nd = d
		}
	}
	return nd
}

// allocateCycles implements Figure 6's allocate_cycles(k): hand out the
// statically-scaled schedule's cycle budget to tasks in RM priority order.
//
//rtdvs:hotpath
func (p *ccRM) allocateCycles(budget float64) {
	for _, i := range p.rmOrder {
		if p.cleft[i] <= budget {
			p.d[i] = p.cleft[i]
			budget -= p.cleft[i]
		} else {
			p.d[i] = budget
			budget = 0
		}
	}
}

// selectFrequency implements Figure 6's select_frequency(): the lowest fi
// with Σd_j/s_m ≤ fi/fm, where s_m is the full-speed cycle capacity to the
// next deadline. interval is the time from now to that deadline; callers
// compute it once per hook and share it with allocateCycles.
//
//rtdvs:hotpath
func (p *ccRM) selectFrequency(interval float64) {
	var sum float64
	for _, d := range p.d {
		sum += d
	}
	switch {
	case fpx.LeTol(sum, 0, fpx.Tiny):
		// Nothing allotted before the next deadline; rest at the bottom.
		p.point = p.m.Min()
	case fpx.LeTol(interval, 0, fpx.Tiny):
		// Degenerate window with work outstanding: full speed.
		p.point = p.m.Max()
	default:
		p.setLowestAtLeast(sum / interval)
	}
}

//rtdvs:hotpath
func (p *ccRM) OnRelease(sys System, i int) {
	p.cleft[i] = p.tp[i].wcet
	// Progress to match: what the statically-scaled RM schedule would
	// retire by the next deadline.
	interval := p.nextDeadline(sys) - sys.Now()
	p.allocateCycles(interval * p.fstatic)
	p.selectFrequency(interval)
}

//rtdvs:hotpath
func (p *ccRM) OnCompletion(sys System, i int, _ float64) {
	p.cleft[i] = 0
	p.d[i] = 0
	p.selectFrequency(p.nextDeadline(sys) - sys.Now())
}

//rtdvs:hotpath
func (p *ccRM) OnExecute(i int, cycles float64) {
	p.cleft[i] -= cycles
	if p.cleft[i] < 0 {
		p.cleft[i] = 0
	}
	p.d[i] -= cycles
	if p.d[i] < 0 {
		p.d[i] = 0
	}
}

// IdlePoint drops to the platform minimum while halted (dynamic scheme).
func (p *ccRM) IdlePoint() machine.OperatingPoint { return p.m.Min() }
