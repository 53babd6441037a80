package rtos

import (
	"fmt"
	"math"

	"rtdvs/internal/core"
	"rtdvs/internal/sched"
	"rtdvs/internal/task"
)

// Sporadic and smart-admission support. The paper's model (footnote 1)
// notes that sporadic tasks are handled like periodic ones once a minimum
// inter-arrival time is enforced; the schedulability analyses then treat
// the sporadic task as a periodic task at its minimum rate.

// AddSporadic registers a sporadic task: it is never released by the
// clock, only by Trigger, and consecutive triggers must be at least
// cfg.Period apart (the minimum inter-arrival time). Capacity is reserved
// as if it fired at that minimum rate, so deadline guarantees cover the
// worst case.
func (k *Kernel) AddSporadic(cfg TaskConfig) (TaskID, error) {
	id, err := k.AddTask(cfg, AddOptions{Immediate: true})
	if err != nil {
		return 0, err
	}
	t := k.tasks[len(k.tasks)-1]
	t.sporadic = true
	t.nextRelease = math.Inf(1)
	// Until the first trigger, the earliest possible deadline is one
	// period out; Deadline() tracks this dynamically.
	t.deadline = k.now
	k.rebuild()
	return id, nil
}

// Trigger releases a sporadic task's next invocation at the current
// time. It fails if the task is unknown, not sporadic, still running its
// previous invocation, already armed by a trigger the kernel has not
// released yet, or if the minimum inter-arrival time has not elapsed
// since the last trigger — the enforcement that keeps the worst-case
// analysis valid.
func (k *Kernel) Trigger(id TaskID) error {
	for _, t := range k.tasks {
		if t.id != id {
			continue
		}
		if !t.sporadic {
			return fmt.Errorf("rtos: task %d is not sporadic", id)
		}
		if t.active {
			return fmt.Errorf("rtos: sporadic task %d still has an invocation in flight", id)
		}
		if !math.IsInf(t.nextRelease, 1) {
			// A second trigger would overwrite the first and release once.
			return fmt.Errorf("rtos: sporadic task %d already has a trigger pending at %.3f", id, t.nextRelease)
		}
		if t.inv > 0 && k.now < t.lastRelease+t.cfg.Period-timeEps {
			return fmt.Errorf("rtos: trigger violates minimum inter-arrival: %.3f < %.3f",
				k.now, t.lastRelease+t.cfg.Period)
		}
		t.nextRelease = k.now
		k.rebuild() // its key moves earlier, from +Inf to now
		return nil
	}
	return fmt.Errorf("rtos: no task with id %d", id)
}

// TryAddImmediate admits a periodic task and, when provably safe,
// releases it immediately instead of applying the paper's blanket
// deferred-release rule. Immediate release requires both:
//
//  1. a phase-robust policy (core.PhaseRobustPolicy): the
//     utilization-reserving EDF policies guarantee deadlines at any
//     release phasing, whereas laEDF's deferral heuristic can
//     transiently miss when a new task lands at an unlucky offset
//     (Section 4.3's observation, reproduced in the tests); and
//  2. the processor-demand criterion passing at full speed for the
//     post-insertion state (every in-flight invocation at its worst-case
//     remaining, the newcomer due one period out) — this guards against
//     deferred-work residue left behind by a recently swapped-out
//     aggressive policy.
//
// Otherwise admission falls back to deferred release. It reports which
// path was taken.
func (k *Kernel) TryAddImmediate(cfg TaskConfig) (id TaskID, immediate bool, err error) {
	_, robust := k.policy.(core.PhaseRobustPolicy)
	if robust && k.policy.Scheduler() == sched.EDF && k.feasibleWith(cfg) {
		id, err = k.AddTask(cfg, AddOptions{Immediate: true})
		return id, err == nil, err
	}
	id, err = k.AddTask(cfg, AddOptions{})
	return id, false, err
}

// feasibleWith builds the mid-schedule state snapshot and applies the
// demand criterion with the candidate inserted for immediate release.
func (k *Kernel) feasibleWith(cfg TaskConfig) bool {
	nt := task.Task{Name: cfg.Name, Period: cfg.Period, WCET: cfg.WCET}
	if nt.Validate() != nil {
		return false
	}
	state := make([]sched.InflightTask, 0, len(k.tasks)+1)
	for _, t := range k.tasks {
		st := sched.InflightTask{
			Task: task.Task{Name: t.cfg.Name, Period: t.cfg.Period, WCET: t.cfg.WCET},
		}
		switch {
		case t.active:
			st.Deadline = t.deadline
			// Worst-case remaining: the declared bound minus observed
			// progress (the actual demand is unknowable here).
			st.Remaining = math.Max(0, t.cfg.WCET-t.used)
		case t.inv == 0:
			// First release pending: zero-work invocation due then.
			st.Deadline = t.startAt
		default:
			// Completed: deadline == next release, nothing owed.
			st.Deadline = t.nextRelease
		}
		if t.sporadic && !t.active {
			// Earliest possible next arrival.
			st.Deadline = math.Max(k.now, t.lastRelease+t.cfg.Period)
		}
		state = append(state, st)
	}
	state = append(state, sched.InflightTask{
		Task:      nt,
		Deadline:  k.now + cfg.Period,
		Remaining: cfg.WCET,
	})
	return sched.EDFFeasibleFrom(k.now, state, 1.0)
}
