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
	// order and key are the fallback deadline order, for a System that
	// keeps none (OrderedSystem): the tasks in ascending (deadline,
	// index) order and their deadlines, position by position. Between
	// scheduling events at most one task's deadline moves, so each hook
	// refreshes the keys in place and repairs the order by insertion
	// sort from its previous state — near-linear per event.
	order []int
	key   []float64
	u0    float64 // ΣC_i/P_i of the attached set, fixed per Attach
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
	p.key = growZeroed(p.key, n)
	p.u0 = ts.Utilization()
	p.peakU = 0
	p.point = m.Min() // nothing to do before the first release
	return nil
}

// defer_ implements Figure 8's defer(): compute s, the minimum number of
// cycles that must execute before the next deadline D_n, and set the
// frequency to pace s over the remaining window.
//
// The walk reads the tasks in ascending (deadline, index) order, a
// permutation and its keys position by position: the system's own order
// when it keeps one (OrderedSystem), the policy's repaired copy
// otherwise. D_n is the first key. Figure 8 visits the latest deadline
// first and ties by ascending index, so the walk goes back to front and
// walks each maximal run of equal keys front to back: every sum rounds
// exactly as in that order.
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
	order, key := deadlineOrder(sys)
	if order == nil {
		order, key = p.repair(sys)
	}
	mm := float64(p.ncores)
	dn := key[0]

	u := p.u0
	peak := u
	var s, xmax float64
	lo, hi := len(order), 0 // the run of equal keys being walked, [lo, hi]
	for q := len(order) - 1; q >= 0; q-- {
		k := q
		if q >= lo {
			k = lo + hi - q // the run, front to back
		} else if q > 0 && !(key[q-1] < key[q]) {
			// q tops a run of equal keys (they ascend, so a key not
			// strictly below key[q] equals it): find its front.
			lo, hi = q-1, q
			for lo > 0 && !(key[lo-1] < key[q]) {
				lo--
			}
			k = lo
		}
		i := order[k]
		u -= p.tp[i].util
		if p.cleft[i] <= 0 {
			// Nothing left to run (cleft is never negative). For a finite
			// window x below is +0, since rate·window ≥ 0, and the re-add
			// (c_left − x)/window is +0, so U −= C_i/P_i is the whole
			// step: s and x_max gain +0, and the peak stays, since U only
			// fell. (An infinite window, a completed sporadic task in the
			// rtos kernel, made x NaN at rate 0, which only an overloaded
			// admit-all kernel reaches; it defers nothing now.)
			continue
		}
		window := key[k] - dn
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

	interval := dn - sys.Now()
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

// repair is the fallback deadline order: it refreshes the cached keys
// from sys and restores ascending (deadline, index) order by insertion
// sort. Only the tasks whose deadline moved since the last hook are out
// of place, and OrderBefore is a strict total order, so the result is
// the unique sorted permutation whatever state the repair starts from.
//
//rtdvs:hotpath
func (p *laEDF) repair(sys System) ([]int, []float64) {
	order, key := p.order, p.key
	for k, i := range order {
		key[k] = sys.Deadline(i)
	}
	for k := 1; k < len(order); k++ {
		i, d := order[k], key[k]
		j := k
		for j > 0 && OrderBefore(d, i, key[j-1], order[j-1]) {
			order[j], key[j] = order[j-1], key[j-1]
			j--
		}
		order[j], key[j] = i, d
	}
	return order, key
}

//rtdvs:hotpath
func (p *laEDF) OnRelease(sys System, i int) {
	p.cleft[i] = p.tp[i].wcet
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
