package sim

import (
	"fmt"
	"math"

	"rtdvs/internal/core"
	"rtdvs/internal/fpx"
	"rtdvs/internal/machine"
	"rtdvs/internal/task"
)

// UtilizationReporter is implemented by policies that maintain explicit
// utilization bookkeeping (cycle-conserving EDF reports ΣU_i, look-ahead
// EDF the peak cumulative utilization of its deferral walk). The
// invariant checker asserts the reported value stays within the
// schedulability bound (≤ 1, or ≤ m for a gang policy on m cores) for
// admitted task sets.
type UtilizationReporter interface {
	ReservedUtilization() float64
}

// invariantChecker validates runtime invariants of a simulation as it
// executes. It is enabled by Config.CheckInvariants and automatically
// under `go test` (testing.Testing()), so every test in the repository
// runs with the checker live. One checker serves scalar and global runs
// alike. The invariants:
//
//  1. the hardware operating point is always one of the machine's
//     discrete points — policies must not fabricate frequency/voltage
//     pairs the platform cannot realize;
//  2. energy accounting is physical: components are non-negative and the
//     running total never decreases;
//  3. a policy with utilization bookkeeping never reserves more than the
//     full-speed capacity (≤ 1 per run slot) while its admission
//     guarantee holds;
//  4. a policy whose schedulability test admitted the set (Guaranteed)
//     never produces a deadline miss — the paper's central claim;
//  5. in a global run, every occupied slot holds an active job and no
//     job occupies two slots at once;
//  6. the release order and the run queue agree with an O(n) scan at
//     every scheduling point: the pick is the active task with the
//     smallest (key, index), the key being the deadline under EDF and
//     the period under RM (a global run's picks are the first m active
//     tasks in that order), and the next release time is the earliest
//     deadline. A single frame of up to 64 tasks run without a fault
//     injector skips the scan, for cost alone: its events are the
//     cheapest the loop has, and the scan would double them. The same
//     frames run with a silent injector (TestQueueShapesPinned,
//     FuzzSimulatorQueues) and frames of more than 64 tasks keep it.
//
// Invariants 3 and 4 carry fault provenance: both are derived from the
// task model the admission test ran against, so once an injected fault
// has actually broken that model (fault.Injector.ModelViolated — an
// overrun, a refused speed-up, an inflated stop) a miss or an over-reserve
// no longer falsifies the policy and the check stands down. The
// relaxation is exactly that narrow: a configured-but-silent injector
// relaxes nothing, and invariants 1, 2, 5 and 6 (point discreteness,
// physical energy accounting, slot occupancy, queue order) hold
// unconditionally — no fault excuses them.
//
// Only the first violation is recorded; checks are cheap enough to stay
// on for every run. All check methods are safe on a nil receiver, so the
// simulator's hook sites need no guards, and each is an inlinable test
// (checker on, no violation yet) in front of an outlined body, so an
// event of a run without the checker makes no call into it.
type invariantChecker struct {
	s *simulator

	// ur and guaranteed are the policy's utilization-reporter facet and
	// admission verdict, both fixed by Attach, read once per run so the
	// per-event checks skip the interface machinery.
	ur         UtilizationReporter
	guaranteed bool
	// frame exempts the run from invariant 6's scan (see above).
	frame bool

	lastTotal float64
	err       error
}

// newInvariantChecker returns a checker for the run s has just attached.
func newInvariantChecker(s *simulator) invariantChecker {
	ur, _ := s.cfg.Policy.(UtilizationReporter)
	return invariantChecker{s: s, ur: ur, guaranteed: s.cfg.Policy.Guaranteed(),
		frame: s.cfg.Faults == nil && !s.heaps && singleFrame(s.ts)}
}

// singleFrame reports whether every task of ts shares one period and one
// phase, exactly: nearly equal periods drift apart.
func singleFrame(ts *task.Set) bool {
	t0 := ts.Task(0)
	for i := 1; i < ts.Len(); i++ {
		t := ts.Task(i)
		if t.Period < t0.Period || t.Period > t0.Period || t.Phase < t0.Phase || t.Phase > t0.Phase {
			return false
		}
	}
	return true
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

func (c *invariantChecker) checkPoint(op machine.OperatingPoint) {
	if c != nil && c.err == nil {
		c.point(op)
	}
}

func (c *invariantChecker) checkEnergy() {
	if c != nil && c.err == nil {
		c.energy()
	}
}

func (c *invariantChecker) checkUtilization() {
	if c != nil && c.err == nil {
		c.utilization()
	}
}

func (c *invariantChecker) checkMiss(i, inv int, deadline float64) {
	if c != nil && c.err == nil {
		c.miss(i, inv, deadline)
	}
}

func (c *invariantChecker) checkOccupancy() {
	if c != nil && c.err == nil {
		c.occupancy()
	}
}

func (c *invariantChecker) checkPick(pick int) {
	if c != nil && c.err == nil {
		c.pick(pick)
	}
}

func (c *invariantChecker) checkPicks() {
	if c != nil && c.err == nil {
		c.picks()
	}
}

// point asserts op is one of the machine's discrete operating points.
// Exact equality is intentional: a point drifted by any amount is one
// the hardware cannot be set to.
func (c *invariantChecker) point(op machine.OperatingPoint) {
	for _, p := range c.s.cfg.Machine.Points {
		if p == op {
			return
		}
	}
	c.failf("policy %s selected operating point (f=%g, V=%g), which is not "+
		"one of the machine's discrete points",
		c.s.cfg.Policy.Name(), op.Freq, op.Voltage)
}

// energy asserts the energy accounting is non-negative and the running
// total is monotone non-decreasing.
func (c *invariantChecker) energy() {
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

// utilization asserts that a utilization-reporting policy stays within
// the full-speed capacity of the run's m slots while its guarantee
// holds. An injected overrun legitimately breaks the bound — completion
// usage beyond the declared WCET pushes cc_i/P_i past the reservation
// the test admitted — so the check stands down once the model is
// violated.
func (c *invariantChecker) utilization() {
	if c.ur == nil || !c.guaranteed || c.modelViolated() {
		return
	}
	if u := c.ur.ReservedUtilization(); fpx.Gt(u, float64(c.s.m)) {
		c.failf("policy %s reserves utilization %g > %d for an admitted "+
			"task set", c.s.cfg.Policy.Name(), u, c.s.m)
	}
}

// miss is called when invocation inv of task i missed its deadline.
// Under a policy whose admission test passed, this falsifies the
// deadline-preservation claim — unless an injected fault already broke
// the task model the test ran against, in which case the miss traces to
// the fault, not the policy.
func (c *invariantChecker) miss(i, inv int, deadline float64) {
	if c.guaranteed && !c.modelViolated() {
		c.failf("task %d invocation %d missed its deadline %g under %s, "+
			"which guaranteed the set", i, inv, deadline, c.s.cfg.Policy.Name())
	}
}

// occupancy asserts a global run's slot assignment: every occupied slot
// holds an active job, and no job occupies two slots at once.
func (c *invariantChecker) occupancy() {
	running := c.s.running
	for a, t := range running {
		if t < 0 {
			continue
		}
		if !c.s.states[t].active {
			c.failf("inactive task %d scheduled on core %d", t, a)
			return
		}
		for b := a + 1; b < len(running); b++ {
			if running[b] == t {
				c.failf("task %d scheduled on cores %d and %d at once", t, a, b)
				return
			}
		}
	}
}

// pick checks a scheduling point's pick (-1 when idle): it must be the
// active task with the smallest (key, index), or -1 when no task is
// active.
func (c *invariantChecker) pick(pick int) {
	if c.frame {
		return
	}
	count := 0
	if pick >= 0 {
		if !c.s.states[pick].active {
			c.failf("run queue picked inactive task %d", pick)
			return
		}
		count = 1
	}
	c.checkTop(pick, count, 1)
}

// picks checks a global segment's picks: active tasks in strictly
// increasing (key, index) order that are the first of all active tasks
// in that order, m of them unless fewer are active.
func (c *invariantChecker) picks() {
	if c.frame {
		return
	}
	s := c.s
	last := -1
	for _, t := range s.picks {
		if !s.states[t].active {
			c.failf("run queue picked inactive task %d", t)
			return
		}
		if last >= 0 && !core.OrderBefore(s.readyKey(last), last, s.readyKey(t), t) {
			c.failf("run queue picked task %d after task %d, out of (key, index) order", t, last)
			return
		}
		last = t
	}
	c.checkTop(last, len(s.picks), s.m)
}

// checkTop asserts by one O(n) scan over the task states that the run
// queue's count picks, ending at task last (-1 when count is 0), are the
// count first active tasks in (key, index) order — the key being the
// deadline under EDF and the period under RM — and that count falls
// short of limit only when no other task is active. The same scan
// checks the next release time.
func (c *invariantChecker) checkTop(last, count, limit int) {
	s := c.s
	var lastKey float64
	if last >= 0 {
		lastKey = s.readyKey(last)
	}
	active, upTo, earliest := 0, 0, math.Inf(1)
	for i := range s.states {
		st := &s.states[i]
		if st.deadline < earliest {
			earliest = st.deadline
		}
		if !st.active {
			continue
		}
		active++
		if last >= 0 && !core.OrderBefore(lastKey, last, s.readyKey(i), i) {
			upTo++
		}
	}
	switch {
	case upTo != count:
		c.failf("run queue's %d pick(s) end at task %d, but %d active tasks come at or before it", count, last, upTo)
	case count < limit && count != active:
		c.failf("run queue picked %d of %d active tasks, with room for %d", count, active, limit)
	default:
		// Exact: every structure that yields the next release time holds
		// deadlines, not recomputations of them.
		if next := s.nextReleaseTime(); next < earliest || next > earliest {
			c.failf("next release at %g, but the earliest deadline is %g", next, earliest)
		}
	}
}
