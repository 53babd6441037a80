package rtos

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"rtdvs/internal/sched"
)

// indexError checks the kernel's release order against its registry:
// every task's key is its next event (its deadline while active, its
// next release otherwise), the order holds each task once, sorted by
// (key, index), and the ready set holds exactly the active tasks, in
// (deadline, index) order under EDF and (period, index) order under RM,
// so that the pick is the first of them. The order's positions, which
// the kernel cannot see, are checked by the sched tests. It returns nil
// when they agree.
func indexError(k *Kernel) error {
	n := len(k.tasks)
	order, keys := k.q.Tasks()
	if len(order) != n {
		return fmt.Errorf("order of %d tasks for a registry of %d", len(order), n)
	}
	seen := make([]bool, n)
	for p, i := range order {
		if i < 0 || i >= n || seen[i] {
			return fmt.Errorf("position %d holds task %d twice or out of range", p, i)
		}
		seen[i] = true
		t := k.tasks[i]
		want := t.nextRelease
		if t.active {
			want = t.deadline
		}
		if math.Float64bits(keys[p]) != math.Float64bits(want) {
			return fmt.Errorf("task %d keyed %v, its next event is %v", i, keys[p], want)
		}
		if p > 0 && !sched.Before(keys[p-1], order[p-1], keys[p], i) {
			return fmt.Errorf("positions %d and %d out of (key, index) order", p-1, p)
		}
	}
	prio := func(i int) float64 {
		if k.kind == sched.RM {
			return k.tasks[i].cfg.Period
		}
		return k.tasks[i].deadline
	}
	var active []int
	for i, t := range k.tasks {
		if t.active {
			active = append(active, i)
		}
	}
	sort.Slice(active, func(a, b int) bool {
		return sched.Before(prio(active[a]), active[a], prio(active[b]), active[b])
	})
	if ready := k.q.Top(n, nil); fmt.Sprint(ready) != fmt.Sprint(active) {
		return fmt.Errorf("%v ready set %v, want the active tasks %v", k.kind, ready, active)
	}
	pick := -1
	if len(active) > 0 {
		pick = active[0]
	}
	if got := k.q.Peek(); got != pick {
		return fmt.Errorf("%v pick %d, want %d", k.kind, got, pick)
	}
	return nil
}

// A Trigger on a kernel idling toward a far periodic release moves the
// order's head to the trigger instant, so the sporadic job is released
// then and not at the periodic release.
func TestTriggerReleasesAtTriggerInstant(t *testing.T) {
	k := newTestKernel(t, "ccEDF")
	if _, err := k.AddTask(TaskConfig{Name: "P", Period: 100, WCET: 1}, AddOptions{Immediate: true}); err != nil {
		t.Fatal(err)
	}
	id, err := k.AddSporadic(TaskConfig{Name: "S", Period: 20, WCET: 2})
	if err != nil {
		t.Fatal(err)
	}
	k.Step(50) // P completed long ago; the next release is at 100
	if err := k.Trigger(id); err != nil {
		t.Fatal(err)
	}
	k.Step(60)
	s := k.Tasks()[1]
	if s.Releases != 1 || s.Completions != 1 || s.Deadline != 70 {
		t.Errorf("sporadic after Step(60): %d releases, %d completions, deadline %v; want 1, 1, 70",
			s.Releases, s.Completions, s.Deadline)
	}
}

// Removing the task that holds the earliest release leaves the next
// event at the earliest release of the tasks that remain.
func TestRemoveEarliestTaskMovesNextEvent(t *testing.T) {
	k := newTestKernel(t, "ccEDF")
	a, err := k.AddTask(TaskConfig{Name: "A", Period: 10, WCET: 1}, AddOptions{Immediate: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.AddTask(TaskConfig{Name: "B", Period: 30, WCET: 1}, AddOptions{Immediate: true}); err != nil {
		t.Fatal(err)
	}
	k.Step(5) // both invocations done; A releases next at 10, B at 30
	if err := k.RemoveTask(a); err != nil {
		t.Fatal(err)
	}
	if next := k.q.Head(); next != 30 {
		t.Errorf("next event after removing A = %v, want 30", next)
	}
}

// A deferrable-server invocation that completed and is re-activated by
// AddDemand is ready again, so the pick finds it and the job runs at
// once.
func TestAddDemandReactivationIsPicked(t *testing.T) {
	k := newTestKernel(t, "ccEDF")
	s, err := NewDeferrableServer(k, "ds", 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	k.Step(1) // the empty-queue token released at 0 has retired
	if k.Ready(0) {
		t.Fatal("server invocation still active before the submission")
	}
	j, err := s.Submit("job", 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := k.q.Peek(); got != 0 {
		t.Fatalf("pick after the re-activation = %d, want 0", got)
	}
	k.Step(5)
	if !j.Done {
		t.Error("re-activated server invocation did not run its job")
	}
}
