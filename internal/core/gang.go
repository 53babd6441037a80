package core

import (
	"rtdvs/internal/machine"
	"rtdvs/internal/sched"
	"rtdvs/internal/task"
)

// Gang policy variants generalize the paper's uniprocessor RT-DVS
// policies to an m-core identical multiprocessor whose cores share one
// voltage/frequency rail (the common embedded-SMP arrangement, and the
// model of Nélis et al.). One policy instance observes system-wide
// releases and completions and dictates the single operating point all
// m cores run at; the global-EDF engine in internal/sim drives it. The
// core count is discovered at Attach from machine.Spec.NumCores, so on
// a single-core spec every gang variant degenerates to its uniprocessor
// counterpart:
//
//   - gangStaticEDF — lowest f admitting the set under the sufficient
//     global-EDF (GFB) test, fixed for the task set (Section 2.3
//     lifted to m cores).
//   - gangCCEDF     — ccEDF's reservation (ccedf.go) on m cores: the
//     rail tracks the inverted GFB bound of the current aggregate
//     (Section 2.4 lifted to m cores).
//   - gangLAEDF     — laEDF's walk (laedf.go) on m cores: defer work
//     past the earliest deadline onto the aggregate capacity m−U, and
//     pace the m cores to finish the non-deferrable remainder (Section
//     2.5 lifted to m cores).
//
// The two dynamic variants are the uniprocessor mechanisms themselves,
// run with the attached core count, so at m = 1 they are ccEDF and
// laEDF by construction.

// gangRequired returns the lowest relative frequency alpha satisfying
// the inverted GFB bound for aggregate utilization sum with largest
// per-task utilization lmax on m cores:
//
//	sum ≤ m·(alpha − lmax) + lmax  ⇔  alpha ≥ (sum + (m−1)·lmax) / m
//
// and alpha ≥ lmax (no single task may outrun a core). On one core the
// bound is sum ≤ alpha, and Section 2.4's argument covers reservations
// lowered below a task's worst case, so m = 1 returns sum itself: ccEDF's
// select_frequency, with no division and no floor.
//
//rtdvs:hotpath
func gangRequired(sum, lmax float64, m int) float64 {
	if m == 1 {
		return sum
	}
	return max((sum+float64(m-1)*lmax)/float64(m), lmax)
}

// GangPolicy marks the policies that understand multi-core platforms:
// one instance drives the shared rail of all m cores under global EDF.
// The simulator's global placement only accepts gang policies — a
// uniprocessor policy attached to an m-core spec would reserve capacity
// for one core and underfeed the other m−1.
type GangPolicy interface {
	Policy
	// Gang is a marker; it carries no behavior.
	Gang()
}

// gangStatic is gangStaticEDF: the static mechanism against the scaled
// global-EDF sufficient test.
type gangStatic struct {
	base
	ncores int
}

// GangStaticEDF returns the statically-scaled gang EDF policy for
// global-EDF scheduling on the attached spec's cores.
func GangStaticEDF() Policy { return &gangStatic{} }

func (p *gangStatic) Name() string          { return "gangStaticEDF" }
func (p *gangStatic) Scheduler() sched.Kind { return sched.EDF }

func (p *gangStatic) Attach(ts *task.Set, m *machine.Spec) error {
	if err := p.attach(ts, m); err != nil {
		return err
	}
	p.ncores = m.NumCores()
	p.guaranteed = sched.GlobalEDFTest(ts, p.ncores, 1)
	p.point = m.Max()
	for _, op := range m.Points {
		if sched.GlobalEDFTest(ts, p.ncores, op.Freq) {
			p.point = op
			break
		}
	}
	return nil
}

func (p *gangStatic) OnRelease(System, int)             {}
func (p *gangStatic) OnCompletion(System, int, float64) {}
func (p *gangStatic) OnExecute(int, float64)            {}

// IdlePoint holds the statically selected point, like staticEDF.
func (p *gangStatic) IdlePoint() machine.OperatingPoint { return p.point }

// Gang marks the policy as multiprocessor-aware.
func (p *gangStatic) Gang() {}

// gangCC is gangCCEDF: the cycle-conserving reservation over the
// aggregate utilization of all m cores, admitted by the GFB test. It
// embeds the reservation rather than ccEDF so that ccEDF's PhaseRobust
// marker, which the kernel's admission relies on, is not promoted.
type gangCC struct{ reservation }

// GangCCEDF returns the cycle-conserving gang EDF policy.
func GangCCEDF() Policy { return &gangCC{} }

func (p *gangCC) Name() string { return "gangCCEDF" }

func (p *gangCC) Attach(ts *task.Set, m *machine.Spec) error {
	if err := p.attach(ts, m); err != nil {
		return err
	}
	p.reserve(m.NumCores())
	p.guaranteed = sched.GlobalEDFTest(ts, p.ncores, 1)
	return nil
}

// Gang marks the policy as multiprocessor-aware.
func (p *gangCC) Gang() {}

// gangLA is gangLAEDF: laEDF's look-ahead walk run against the
// aggregate capacity of m cores.
type gangLA struct{ laEDF }

// GangLAEDF returns the look-ahead gang EDF policy.
func GangLAEDF() Policy { return &gangLA{} }

func (p *gangLA) Name() string { return "gangLAEDF" }

func (p *gangLA) Attach(ts *task.Set, m *machine.Spec) error {
	if err := p.laEDF.Attach(ts, m); err != nil {
		return err
	}
	p.ncores = m.NumCores()
	// At m = 1 this policy IS laEDF, whose deferral is safe because
	// uniprocessor EDF is optimal: any fluid-feasible residual plan is
	// EDF-schedulable. Global EDF on m > 1 cores is not optimal (the
	// Dhall effect), so the multiprocessor deferral is a best-effort
	// heuristic and claims no hard guarantee — misses are possible on
	// GFB-admissible sets, and the simulator's guaranteed-implies-no-miss
	// invariant must not treat them as engine bugs.
	p.guaranteed = p.ncores == 1 && sched.GlobalEDFTest(ts, 1, 1)
	return nil
}

// Gang marks the policy as multiprocessor-aware.
func (p *gangLA) Gang() {}
