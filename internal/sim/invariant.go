package sim

import (
	"fmt"

	"rtdvs/internal/fpx"
	"rtdvs/internal/machine"
)

// UtilizationReporter is implemented by policies that maintain explicit
// utilization bookkeeping (cycle-conserving EDF reports ΣU_i, look-ahead
// EDF the peak cumulative utilization of its deferral walk). The
// invariant checker asserts the reported value stays within the
// schedulability bound (≤ 1) for admitted task sets.
type UtilizationReporter interface {
	ReservedUtilization() float64
}

// invariantChecker validates runtime invariants of a simulation as it
// executes. It is enabled by Config.CheckInvariants and automatically
// under `go test` (testing.Testing()), so every test in the repository
// runs with the checker live. The invariants:
//
//  1. the hardware operating point is always one of the machine's
//     discrete points — policies must not fabricate frequency/voltage
//     pairs the platform cannot realize;
//  2. energy accounting is physical: components are non-negative and the
//     running total never decreases;
//  3. a policy with utilization bookkeeping never reserves more than the
//     full-speed capacity (≤ 1) while its admission guarantee holds;
//  4. a policy whose schedulability test admitted the set (Guaranteed)
//     never produces a deadline miss — the paper's central claim.
//
// Invariants 3 and 4 carry fault provenance: both are derived from the
// task model the admission test ran against, so once an injected fault
// has actually broken that model (fault.Injector.ModelViolated — an
// overrun, a late release, a refused speed-up) a miss or an over-reserve
// no longer falsifies the policy and the check stands down. The
// relaxation is exactly that narrow: a configured-but-silent injector
// relaxes nothing, and invariants 1 and 2 (point discreteness, physical
// energy accounting) hold unconditionally — no fault excuses them.
//
// Only the first violation is recorded; checks are cheap enough to stay
// on for every run. All methods are safe on a nil receiver so the
// simulator's hook sites need no guards.
type invariantChecker struct {
	s *simulator

	// ur and guaranteed are the policy's utilization-reporter facet and
	// admission verdict, both fixed by Attach, read once per run so the
	// per-event checks skip the interface machinery.
	ur         UtilizationReporter
	guaranteed bool

	lastTotal float64
	err       error
}

// newInvariantChecker returns a checker for the run s has just attached.
func newInvariantChecker(s *simulator) invariantChecker {
	ur, _ := s.cfg.Policy.(UtilizationReporter)
	return invariantChecker{s: s, ur: ur, guaranteed: s.cfg.Policy.Guaranteed()}
}

// Err returns the first recorded violation, if any.
func (c *invariantChecker) Err() error {
	if c == nil {
		return nil
	}
	return c.err
}

func (c *invariantChecker) failf(format string, args ...interface{}) {
	if c.err == nil {
		c.err = fmt.Errorf("sim: invariant violated at t=%g: %s",
			c.s.now, fmt.Sprintf(format, args...))
	}
}

// checkPoint asserts op is one of the machine's discrete operating
// points. Exact equality is intentional: a point drifted by any amount
// is one the hardware cannot be set to.
func (c *invariantChecker) checkPoint(op machine.OperatingPoint) {
	if c == nil || c.err != nil {
		return
	}
	for _, p := range c.s.cfg.Machine.Points {
		if p == op {
			return
		}
	}
	c.failf("policy %s selected operating point (f=%g, V=%g), which is not "+
		"one of the machine's discrete points",
		c.s.cfg.Policy.Name(), op.Freq, op.Voltage)
}

// checkEnergy asserts the energy accounting is non-negative and the
// running total is monotone non-decreasing.
func (c *invariantChecker) checkEnergy() {
	if c == nil || c.err != nil {
		return
	}
	exec, idle := c.s.res.ExecEnergy, c.s.res.IdleEnergy
	if exec < 0 || idle < 0 {
		c.failf("negative energy component (exec=%g, idle=%g)", exec, idle)
		return
	}
	total := exec + idle
	if fpx.Lt(total, c.lastTotal) {
		c.failf("total energy decreased from %g to %g", c.lastTotal, total)
		return
	}
	c.lastTotal = total
}

// modelViolated reports whether an injected fault has already broken an
// assumption the admission guarantee rests on. This is the provenance
// that distinguishes "the policy is wrong" from "the workload left the
// declared model": a nil or still-silent injector reports false and the
// model-derived invariants stay fully enforced.
func (c *invariantChecker) modelViolated() bool {
	f := c.s.cfg.Faults
	return f != nil && f.ModelViolated()
}

// checkUtilization asserts that a utilization-reporting policy stays
// within the full-speed capacity bound while its guarantee holds. An
// injected overrun legitimately breaks the bound — completion usage
// beyond the declared WCET pushes cc_i/P_i past the reservation the
// test admitted — so the check stands down once the model is violated.
func (c *invariantChecker) checkUtilization() {
	if c == nil || c.err != nil || c.ur == nil || !c.guaranteed || c.modelViolated() {
		return
	}
	if u := c.ur.ReservedUtilization(); fpx.Gt(u, 1) {
		c.failf("policy %s reserves utilization %g > 1 for an admitted "+
			"task set", c.s.cfg.Policy.Name(), u)
	}
}

// checkMiss is called when invocation inv of task i missed its deadline.
// Under a policy whose admission test passed, this falsifies the
// deadline-preservation claim — unless an injected fault already broke
// the task model the test ran against, in which case the miss traces to
// the fault, not the policy.
func (c *invariantChecker) checkMiss(i, inv int, deadline float64) {
	if c == nil || c.err != nil {
		return
	}
	if c.guaranteed && !c.modelViolated() {
		c.failf("task %d invocation %d missed its deadline %g under %s, "+
			"which guaranteed the set", i, inv, deadline, c.s.cfg.Policy.Name())
	}
}
