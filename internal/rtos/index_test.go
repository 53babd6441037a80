package rtos

import (
	"fmt"
	"math"
	"testing"
)

// indexError compares the kernel's index with a scan of its registry:
// the earliest release, the sporadic count, and the ready bitset bit by
// bit against each task's active flag, with no bit set past the last
// task. It returns nil when they agree.
func indexError(k *Kernel) error {
	earliest, sporadics := math.Inf(1), 0
	for _, t := range k.tasks {
		earliest = math.Min(earliest, t.nextRelease)
		if t.sporadic {
			sporadics++
		}
	}
	if k.earliest != earliest {
		return fmt.Errorf("cached earliest release %v, registry %v", k.earliest, earliest)
	}
	if k.sporadics != sporadics {
		return fmt.Errorf("cached sporadic count %d, registry %d", k.sporadics, sporadics)
	}
	if len(k.ready)*64 < len(k.tasks) {
		return fmt.Errorf("ready bitset of %d words for %d tasks", len(k.ready), len(k.tasks))
	}
	for i := 0; i < len(k.ready)*64; i++ {
		bit := k.ready[i>>6]>>(i&63)&1 == 1
		active := i < len(k.tasks) && k.tasks[i].active
		if bit != active {
			return fmt.Errorf("ready bit %d is %v, task active %v", i, bit, active)
		}
	}
	return nil
}

// A Trigger on a kernel idling toward a far periodic release lowers the
// earliest release to the trigger instant, so the sporadic job is
// released then and not at the periodic release.
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
	if next := k.nextReleaseTime(); next != 30 {
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
	if got := k.pick(); got != 0 {
		t.Fatalf("pick after the re-activation = %d, want 0", got)
	}
	k.Step(5)
	if !j.Done {
		t.Error("re-activated server invocation did not run its job")
	}
}
