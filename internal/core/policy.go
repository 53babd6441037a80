// Package core implements the paper's contribution: the RT-DVS
// frequency/voltage-selection policies that couple dynamic voltage
// scaling with the real-time scheduler while preserving deadline
// guarantees (Section 2).
//
// Six policies are provided, matching the rows of Table 4:
//
//   - none          — plain EDF/RM at full speed (the non-DVS baseline)
//   - staticEDF     — statically-scaled EDF (Section 2.3)
//   - staticRM      — statically-scaled RM (Section 2.3)
//   - ccEDF         — cycle-conserving EDF (Section 2.4, Figure 4)
//   - ccRM          — cycle-conserving RM (Section 2.4, Figure 6)
//   - laEDF         — look-ahead EDF (Section 2.5, Figure 8)
//
// A policy is driven by the execution substrate (the simulator in
// internal/sim or the RTOS kernel in internal/rtos) through release,
// completion, and execution-progress callbacks, and in return dictates the
// operating point the processor must run at. All policies change frequency
// only at task release or completion, so at most two switches occur per
// task per invocation, as the paper argues when accounting for switch
// overheads.
package core

import (
	"fmt"

	"rtdvs/internal/machine"
	"rtdvs/internal/sched"
	"rtdvs/internal/task"
)

// System is the read-only view of runtime state a policy may consult in
// its callbacks. The invariant deadline = end of period = next release
// (Section 2.2) means Deadline(i) is well defined for both running and
// completed invocations.
type System interface {
	// Now returns the current time in milliseconds.
	Now() float64
	// Deadline returns the absolute deadline of task i's current
	// invocation; for a completed invocation this equals the next release
	// time.
	Deadline(i int) float64
}

// OrderedSystem is an optional extension of System for a substrate that
// keeps its tasks in ascending (deadline, index) order, the order in
// which Figures 6 and 8 visit them. DeadlineOrder returns that order and
// its keys position by position: order[k] is a task index, keys[k] is
// Deadline(order[k]), and consecutive positions satisfy sched.Before. On
// a System without it a policy builds the order itself from Deadline.
// The slices alias the substrate's state: they are valid during the
// callback only and must not be modified.
type OrderedSystem interface {
	System
	DeadlineOrder() (order []int, keys []float64)
}

// deadlineOrder returns sys's (deadline, index) order when sys is an
// OrderedSystem, and nil slices otherwise. Written with named results,
// it stays within the inliner's budget.
//
//rtdvs:hotpath
func deadlineOrder(sys System) (order []int, keys []float64) {
	if o, ok := sys.(OrderedSystem); ok {
		order, keys = o.DeadlineOrder()
	}
	return
}

// Policy selects the processor operating point in response to scheduler
// events. Implementations are stateful and not safe for concurrent use;
// Attach resets all state, so an instance may be reused across sequential
// runs.
type Policy interface {
	// Name returns the policy's short name as used in the paper's figures
	// ("ccEDF", "laEDF", ...).
	Name() string

	// Scheduler returns the scheduling discipline the policy is designed
	// for. Running a policy under the other scheduler voids its
	// guarantees.
	Scheduler() sched.Kind

	// Attach binds the policy to a task set and machine specification,
	// resetting all dynamic state. It returns an error only for invalid
	// inputs; an unschedulable task set is reported through Guaranteed
	// instead, and the policy degrades to full speed.
	Attach(ts *task.Set, m *machine.Spec) error

	// Guaranteed reports whether the policy's schedulability test admitted
	// the task set at full speed, i.e. whether deadline guarantees hold.
	Guaranteed() bool

	// OnRelease is invoked after task i is released (its deadline and the
	// deadlines of simultaneously released tasks are already updated).
	OnRelease(sys System, i int)

	// OnCompletion is invoked when task i finishes an invocation that
	// consumed `used` cycles (milliseconds at maximum frequency).
	OnCompletion(sys System, i int, used float64)

	// OnExecute informs the policy that task i has executed `cycles`
	// cycles since the last callback.
	OnExecute(i int, cycles float64)

	// Point returns the operating point the processor must use now.
	Point() machine.OperatingPoint

	// IdlePoint returns the operating point the processor rests at while
	// halted. Dynamic policies drop to the platform minimum during idle;
	// static ones hold their fixed point (Section 3.2, "Varying idle
	// level").
	IdlePoint() machine.OperatingPoint
}

// PhaseRobustPolicy marks policies whose deadline guarantee holds for
// arbitrary release phasing AND across task-set changes, not just the
// synchronous (critical-instant) pattern the paper's simulations use.
// The utilization-reserving EDF policies (none, staticEDF, ccEDF)
// qualify by the classical demand-bound argument: with deadline =
// period, the demand of any task in any window is at most its reserved
// utilization times the window, so running at the reserved-utilization
// speed suffices at every phasing and from any reachable state.
// Look-ahead EDF does NOT qualify: work it deferred before a task was
// admitted reserved nothing for the newcomer, and a mid-schedule
// insertion can transiently miss (the Section 4.3 hazard, pinned by
// rtos.TestLAEDFPhaseSensitivity; with a-priori knowledge of the same
// phased task laEDF is clean — see sim.TestLAEDFHandlesAPrioriPhases).
// The kernel's smart admission releases new tasks immediately only under
// phase-robust policies.
type PhaseRobustPolicy interface {
	Policy
	// PhaseRobust is a marker; implementations guarantee deadlines for
	// arbitrary task phasing whenever Guaranteed() is true.
	PhaseRobust()
}

// policyFactories is the policy registry: every concrete Policy
// implementation must be reachable from a constructor registered here (or
// in extensionFactories), which is what the policyreg analyzer in
// internal/analysis enforces. Aliases ("none"/"noneEDF"/"EDF") map to the
// same constructor.
//
//rtdvs:policyregistry
var policyFactories = map[string]func() Policy{
	"none":      func() Policy { return None(sched.EDF) },
	"noneEDF":   func() Policy { return None(sched.EDF) },
	"EDF":       func() Policy { return None(sched.EDF) },
	"noneRM":    func() Policy { return None(sched.RM) },
	"RM":        func() Policy { return None(sched.RM) },
	"staticEDF": StaticEDF,
	"staticRM":  StaticRM,
	"ccEDF":     CycleConservingEDF,
	"ccRM":      CycleConservingRM,
	"laEDF":     LookAheadEDF,
	// Overrun-contained variants (see contain.go): the same policies
	// wrapped with the graceful-degradation layer that falls back to
	// full speed while a job runs past its declared worst case.
	"ccEDF+contain": func() Policy { return Contained(CycleConservingEDF()) },
	"ccRM+contain":  func() Policy { return Contained(CycleConservingRM()) },
	"laEDF+contain": func() Policy { return Contained(LookAheadEDF()) },
}

// RegisterPolicy adds a named constructor to the registry so ByName can
// resolve it. It is intended for init-time registration of policies
// implemented outside this package and is not safe for concurrent use
// with ByName. Registering a duplicate or empty name is an error.
func RegisterPolicy(name string, factory func() Policy) error {
	if name == "" || factory == nil {
		return fmt.Errorf("core: RegisterPolicy needs a name and a factory")
	}
	if _, dup := policyFactories[name]; dup {
		return fmt.Errorf("core: policy %q already registered", name)
	}
	policyFactories[name] = factory
	return nil
}

// ByName constructs a fresh policy instance by its paper name. The
// baseline accepts both "none" (EDF, as in the figures) and the explicit
// "noneEDF"/"noneRM".
func ByName(name string) (Policy, error) {
	if f, ok := policyFactories[name]; ok {
		return f(), nil
	}
	return nil, fmt.Errorf("core: unknown policy %q", name)
}

// Names lists the policy names in the order of the paper's Table 4.
func Names() []string {
	return []string{"none", "staticRM", "staticEDF", "ccEDF", "ccRM", "laEDF"}
}

// All returns fresh instances of the six policies in Table 4 order.
func All() []Policy {
	names := Names()
	ps := make([]Policy, len(names))
	for i, n := range names {
		p, err := ByName(n)
		if err != nil {
			panic(err) // unreachable: Names and ByName agree
		}
		ps[i] = p
	}
	return ps
}

// base carries the state common to every policy: the attached task set,
// its per-task parameters, the machine, and the currently selected
// operating point.
type base struct {
	ts         *task.Set
	tp         []taskParams
	m          *machine.Spec
	sel        machine.PointSelector
	point      machine.OperatingPoint
	guaranteed bool
}

// taskParams caches one task's static parameters at Attach, so a hook
// reads a float instead of copying a task.Task out of the set.
type taskParams struct {
	wcet, period, util float64 // C_i, P_i and C_i/P_i
}

// cacheParams fills tp with the parameters of ts's tasks, reusing tp's
// backing array when its capacity suffices.
func cacheParams(tp []taskParams, ts *task.Set) []taskParams {
	tp = sched.GrowZeroed(tp, ts.Len())
	for i := range tp {
		t := ts.Task(i)
		tp[i] = taskParams{wcet: t.WCET, period: t.Period, util: t.Utilization()}
	}
	return tp
}

func (b *base) attach(ts *task.Set, m *machine.Spec) error {
	if ts == nil || ts.Len() == 0 {
		return task.ErrEmptySet
	}
	if m == nil {
		return fmt.Errorf("core: nil machine spec")
	}
	if err := m.Validate(); err != nil {
		return err
	}
	b.ts, b.m = ts, m
	b.tp = cacheParams(b.tp, ts)
	b.sel = m.Selector()
	b.point = m.Max()
	b.guaranteed = false
	return nil
}

func (b *base) Guaranteed() bool              { return b.guaranteed }
func (b *base) Point() machine.OperatingPoint { return b.point }

// setLowestAtLeast moves the operating point to the lowest one meeting
// the required relative frequency, saturating at full speed. The cached
// selector keeps this allocation- and closure-free: it runs on every
// release and completion of the dynamic policies.
//
//rtdvs:hotpath
func (b *base) setLowestAtLeast(f float64) {
	op, _ := b.sel.AtLeast(f) // saturates at max when unreachable
	b.point = op
}
