package core

import (
	"rtdvs/internal/fpx"
	"rtdvs/internal/machine"
	"rtdvs/internal/sched"
	"rtdvs/internal/task"
)

// laEDF implements look-ahead EDF (Section 2.5, Figure 8), the paper's
// most aggressive policy.
//
// Where the cycle-conserving schemes assume the worst case up front and
// relax after early completions, look-ahead EDF inverts the bet: it defers
// as much work as possible past the earliest deadline in the system (D_n)
// and runs just fast enough to finish the minimum that must happen before
// D_n for all future deadlines to remain feasible. If tasks keep finishing
// early, the deferred peak never materializes and the processor dwells at
// low voltage.
//
// The deferral computation walks the tasks in reverse-EDF order (latest
// deadline first), maintaining a cumulative utilization U that reserves
// worst-case capacity for earlier-deadline tasks. For each task, the
// cycles that cannot fit into the spare capacity (1−U) of the window
// (D_i − D_n) spill into the pre-D_n budget:
//
//	U = ΣC_j/P_j
//	s = 0
//	for each task i, latest deadline first:
//	    U -= C_i/P_i
//	    x  = max(0, c_left_i − (1−U)·(D_i − D_n))
//	    U += (c_left_i − x)/(D_i − D_n)
//	    s += x
//	select lowest f ≥ s/(D_n − now)
//
// The walk is written for ncores cores sharing one rail, which gangLAEDF
// sets; laEDF runs it on one core, where it is Figure 8 exactly.
type laEDF struct {
	base
	ncores int       // cores sharing the rail
	cleft  []float64 // worst-case remaining cycles of the current invocation
	// order holds the tasks in reverse-EDF order (latest deadline first,
	// ties by index). Between scheduling events at most one task's
	// deadline moves, so the order is repaired by insertion sort from its
	// previous state — near-linear per event — instead of fully re-sorted.
	order []int
	dl    []float64 // deadline cache for the current walk, filled per event
	u0    float64   // ΣC_i/P_i of the attached set, fixed per Attach
	// peakU is the largest cumulative utilization reached during the last
	// defer_ walk. The walk reserves C_j/P_j for every earlier-deadline
	// task and re-adds only non-deferred work, so for an admitted set
	// (U ≤ 1) it never exceeds 1; exposed via ReservedUtilization for the
	// simulator's invariant checker. (The selected speed s/(D_n − now) is
	// NOT so bounded — the paper saturates it at full speed.)
	peakU float64
}

// LookAheadEDF returns the look-ahead EDF policy.
func LookAheadEDF() Policy { return &laEDF{} }

func (p *laEDF) Name() string          { return "laEDF" }
func (p *laEDF) Scheduler() sched.Kind { return sched.EDF }

func (p *laEDF) Attach(ts *task.Set, m *machine.Spec) error {
	if err := p.attach(ts, m); err != nil {
		return err
	}
	p.guaranteed = sched.EDFTest(ts, 1)
	p.ncores = 1
	n := ts.Len()
	p.cleft = growZeroed(p.cleft, n)
	p.order = growZeroed(p.order, n)
	for i := range p.order {
		p.order[i] = i
	}
	p.dl = growZeroed(p.dl, n)
	p.u0 = ts.Utilization()
	p.peakU = 0
	p.point = m.Min() // nothing to do before the first release
	return nil
}

// laterDeadline is the reverse-EDF ordering of the deferral walk: latest
// deadline first, ties by ascending task index. It is a strict total
// order, so the sorted permutation is unique — identical to what the
// original identity-initialized stable sort produced — no matter what
// order the repair starts from.
//
//rtdvs:hotpath
func (p *laEDF) laterDeadline(a, b int) bool {
	switch {
	case p.dl[a] > p.dl[b]:
		return true
	case p.dl[a] < p.dl[b]:
		return false
	}
	return a < b
}

// defer_ implements Figure 8's defer(): compute s, the minimum number of
// cycles that must execute before the next deadline D_n, and set the
// frequency to pace s over the remaining window.
//
// On m cores later-deadline work fits into the aggregate spare capacity
// (m − U), capped at rate 1 per job (a job occupies one core at a
// time), and the rail paces the m cores to retire s before D_n. At
// m = 1 this is Figure 8's arithmetic exactly: 1 − U ≤ 1 while an
// earlier-deadline task's reservation remains in U, a negative 1 − U
// defers nothing either way (x = c_left), 0·x_max adds nothing, and
// x_max ≤ s keeps the floor below s/interval.
//
//rtdvs:hotpath
func (p *laEDF) defer_(sys System) {
	n := p.ts.Len()
	now := sys.Now()
	mm := float64(p.ncores)

	// Cache the deadlines and find D_n (the earliest) in one pass.
	for i := 0; i < n; i++ {
		p.dl[i] = sys.Deadline(i)
	}
	dn := p.dl[0]
	for _, d := range p.dl[1:] {
		if d < dn {
			dn = d
		}
	}

	// Repair the reverse-EDF order from its previous state. Only the
	// task(s) whose deadline changed since the last event are out of
	// place, so this insertion sort runs in near-linear time.
	for i := 1; i < n; i++ {
		v := p.order[i]
		j := i
		for j > 0 && p.laterDeadline(v, p.order[j-1]) {
			p.order[j] = p.order[j-1]
			j--
		}
		p.order[j] = v
	}

	u := p.u0
	peak := u
	var s, xmax float64
	for _, i := range p.order {
		t := p.ts.Task(i)
		u -= t.Utilization()
		window := p.dl[i] - dn
		var x float64
		if fpx.LeTol(window, 0, fpx.Tiny) {
			// The earliest-deadline task(s): every remaining cycle must
			// run before D_n; no capacity adjustment is possible or
			// needed for a zero-width window.
			x = p.cleft[i]
		} else {
			// Spare rate for this job's window, capped at 1 because a
			// job cannot run on two cores at once, and at 0 because an
			// unschedulable set can drive U past m: never defer
			// negative work.
			rate := mm - u
			if rate > 1 {
				rate = 1
			}
			if rate < 0 {
				rate = 0
			}
			x = p.cleft[i] - rate*window
			if x < 0 {
				x = 0
			}
			u += (p.cleft[i] - x) / window
		}
		if u > peak {
			peak = u
		}
		s += x
		if x > xmax {
			xmax = x
		}
	}
	p.peakU = peak

	interval := dn - now
	switch {
	case fpx.LeTol(s, 0, fpx.Tiny):
		// Nothing must happen before D_n; EDF is work-conserving, so any
		// ready task simply runs at the minimum point (Figure 7d).
		p.point = p.m.Min()
	case fpx.LeTol(interval, 0, fpx.Tiny):
		p.point = p.m.Max()
	default:
		// Pace the m cores so list scheduling retires s before D_n.
		// Graham's makespan bound for list scheduling on m identical
		// machines gives (s + (m−1)·x_max)/(m·f) ≤ interval, floored by
		// x_max/interval (the largest chunk must finish on one core
		// alone). At m = 1 both reduce to Figure 8's s/interval.
		f := (s + (mm-1)*xmax) / (mm * interval)
		if single := xmax / interval; single > f {
			f = single
		}
		p.setLowestAtLeast(f)
	}
}

//rtdvs:hotpath
func (p *laEDF) OnRelease(sys System, i int) {
	p.cleft[i] = p.ts.Task(i).WCET
	p.defer_(sys)
}

//rtdvs:hotpath
func (p *laEDF) OnCompletion(sys System, i int, _ float64) {
	p.cleft[i] = 0
	p.defer_(sys)
}

//rtdvs:hotpath
func (p *laEDF) OnExecute(i int, cycles float64) {
	p.cleft[i] -= cycles
	if p.cleft[i] < 0 {
		p.cleft[i] = 0
	}
}

// ReservedUtilization reports the peak cumulative utilization of the
// last deferral walk: the capacity reserved for earlier-deadline tasks
// plus the non-deferred share of later ones. For an admitted set it
// never exceeds 1 — the walk only ever fills spare capacity (1−U), so a
// value above 1 means the subtract/re-add bookkeeping went wrong.
func (p *laEDF) ReservedUtilization() float64 { return p.peakU }

// IdlePoint drops to the platform minimum while halted (dynamic scheme).
func (p *laEDF) IdlePoint() machine.OperatingPoint { return p.m.Min() }
