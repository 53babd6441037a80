package rtos

import (
	"math"
	"strings"
	"testing"

	"rtdvs/internal/core"
)

func TestSporadicBasicLifecycle(t *testing.T) {
	k := newTestKernel(t, "ccEDF")
	addPaperExample(t, k, 0.5)
	id, err := k.AddSporadic(TaskConfig{Name: "alarm", Period: 50, WCET: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Never triggered: never released.
	k.Step(200)
	for _, ts := range k.Tasks() {
		if ts.ID == id && ts.Releases != 0 {
			t.Fatalf("sporadic released %d times without a trigger", ts.Releases)
		}
	}
	// Trigger fires one invocation; it completes within its deadline.
	if err := k.Trigger(id); err != nil {
		t.Fatal(err)
	}
	k.Step(260)
	for _, ts := range k.Tasks() {
		if ts.ID == id {
			if ts.Releases != 1 || ts.Completions != 1 || ts.Misses != 0 {
				t.Fatalf("after trigger: %+v", ts)
			}
		}
	}
	if n := len(k.Misses()); n != 0 {
		t.Errorf("%d hard misses with sporadic load", n)
	}
}

func TestSporadicMinInterarrivalEnforced(t *testing.T) {
	k := newTestKernel(t, "ccEDF")
	id, err := k.AddSporadic(TaskConfig{Name: "burst", Period: 50, WCET: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Trigger(id); err != nil {
		t.Fatal(err)
	}
	k.Step(10)
	if err := k.Trigger(id); err == nil {
		t.Error("trigger at 10 ms accepted despite 50 ms minimum inter-arrival")
	}
	k.Step(50)
	if err := k.Trigger(id); err != nil {
		t.Errorf("trigger at the minimum gap rejected: %v", err)
	}
}

// A trigger the kernel has not released yet is pending: a second one at
// the same instant must be refused, not folded into the first, so every
// accepted trigger is one release.
func TestTriggerRefusesPendingTrigger(t *testing.T) {
	k := newTestKernel(t, "ccEDF")
	id, err := k.AddSporadic(TaskConfig{Name: "s", Period: 10, WCET: 1})
	if err != nil {
		t.Fatal(err)
	}
	accepted := 0
	for _, c := range []struct {
		at      float64
		pending bool
	}{
		{5, false},
		{20, false},
		{20, true},
		{20, true},
	} {
		k.Step(c.at)
		err := k.Trigger(id)
		switch {
		case err == nil && c.pending:
			t.Errorf("trigger at %g accepted while one is pending", c.at)
		case err != nil && !c.pending:
			t.Errorf("trigger at %g: %v", c.at, err)
		case err != nil && !strings.Contains(err.Error(), "pending at 20.000"):
			t.Errorf("trigger at %g: error %q does not name the pending instant", c.at, err)
		case err == nil:
			accepted++
		}
	}
	k.Step(40)
	for _, ts := range k.Tasks() {
		if ts.ID == id && ts.Releases != accepted {
			t.Errorf("%d releases for %d accepted triggers", ts.Releases, accepted)
		}
	}
}

func TestTriggerErrors(t *testing.T) {
	k := newTestKernel(t, "ccEDF")
	if err := k.Trigger(42); err == nil {
		t.Error("unknown id accepted")
	}
	id, err := k.AddTask(TaskConfig{Name: "periodic", Period: 10, WCET: 1}, AddOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Trigger(id); err == nil {
		t.Error("triggering a periodic task accepted")
	}
}

func TestSporadicReservesCapacity(t *testing.T) {
	// A sporadic task's utilization is reserved even while silent, so
	// admission rejects a set that only fits without it.
	k := newTestKernel(t, "ccEDF")
	if _, err := k.AddSporadic(TaskConfig{Name: "s", Period: 10, WCET: 6}); err != nil {
		t.Fatal(err)
	}
	if _, err := k.AddTask(TaskConfig{Name: "p", Period: 10, WCET: 5}, AddOptions{}); err == nil {
		t.Error("U=1.1 admitted past a silent sporadic reservation")
	}
}

func TestSporadicAtMaximumRateMeetsDeadlines(t *testing.T) {
	// Fire the sporadic task at exactly its minimum inter-arrival — the
	// worst case the analysis reserved for — under each EDF policy.
	for _, pol := range []string{"ccEDF", "laEDF", "staticEDF"} {
		k := newTestKernel(t, pol)
		addPaperExample(t, k, 0.9)
		id, err := k.AddSporadic(TaskConfig{Name: "s", Period: 50, WCET: 2})
		if err != nil {
			t.Fatal(err)
		}
		for now := 0.0; now < 2000; now += 50 {
			k.Step(now)
			if err := k.Trigger(id); err != nil {
				t.Fatalf("%s: trigger at %v: %v", pol, now, err)
			}
		}
		k.Step(2100)
		if n := len(k.Misses()); n != 0 {
			t.Errorf("%s: %d misses at maximum sporadic rate", pol, n)
		}
	}
}

func TestSporadicOverrunDetected(t *testing.T) {
	// A sporadic invocation that cannot finish by its deadline must be
	// recorded even though no follow-on release exists to expose it.
	k := newTestKernel(t, "none")
	k.SetAdmitAll(true)
	hog, err := k.AddTask(TaskConfig{Name: "hog", Period: 10, WCET: 9}, AddOptions{Immediate: true})
	if err != nil {
		t.Fatal(err)
	}
	_ = hog
	// Triggered at t=1 with deadline 11, the sporadic task loses EDF
	// priority to the hog (deadline 10, 8 cycles left) and receives only
	// 2 of its 9 cycles before 11.
	id, err := k.AddSporadic(TaskConfig{Name: "s", Period: 10, WCET: 9})
	if err != nil {
		t.Fatal(err)
	}
	k.Step(1)
	if err := k.Trigger(id); err != nil {
		t.Fatal(err)
	}
	k.Step(100)
	var sporadicMiss bool
	for _, m := range k.Misses() {
		if m.Task == id {
			sporadicMiss = true
			if math.Abs(m.Deadline-11) > 1e-6 {
				t.Errorf("sporadic miss deadline = %v, want 11", m.Deadline)
			}
		}
	}
	if !sporadicMiss {
		t.Error("sporadic deadline miss went undetected")
	}
}

// Smart admission: under ccEDF the A/B/N insertion is released
// immediately (phase-robust, demand-feasible) with zero misses; under
// laEDF the same call defers.
func TestTryAddImmediate(t *testing.T) {
	build := func(policy string) (*Kernel, bool) {
		k := newTestKernel(t, policy)
		for _, row := range [][3]float64{{10, 5, 0}, {40, 18, 0}} {
			if _, err := k.AddTask(TaskConfig{Name: "t", Period: row[0], WCET: row[1]}, AddOptions{Immediate: true}); err != nil {
				t.Fatal(err)
			}
		}
		k.Step(20)
		_, immediate, err := k.TryAddImmediate(TaskConfig{Name: "N", Period: 12, WCET: 0.6})
		if err != nil {
			t.Fatal(err)
		}
		k.Step(2020)
		return k, immediate
	}

	k, immediate := build("ccEDF")
	if !immediate {
		t.Error("ccEDF (phase-robust) should admit immediately")
	}
	if n := len(k.Misses()); n != 0 {
		t.Errorf("immediate admission under ccEDF missed %d deadlines", n)
	}

	if _, immediate := build("laEDF"); immediate {
		t.Error("laEDF is not phase-robust; smart admission must defer")
	}
}

// The known limitation of the published look-ahead heuristic, pinned: at
// full utilization with an unlucky release offset, laEDF transiently
// misses a deadline that ccEDF (pure utilization reservation) meets.
// This is why laEDF does not implement core.PhaseRobustPolicy.
func TestLAEDFPhaseSensitivity(t *testing.T) {
	run := func(policy string) int {
		k := newTestKernel(t, policy)
		for _, row := range [][2]float64{{10, 5}, {40, 18}} {
			if _, err := k.AddTask(TaskConfig{Name: "t", Period: row[0], WCET: row[1]}, AddOptions{Immediate: true}); err != nil {
				t.Fatal(err)
			}
		}
		k.Step(20)
		if _, err := k.AddTask(TaskConfig{Name: "N", Period: 12, WCET: 0.6}, AddOptions{Immediate: true}); err != nil {
			t.Fatal(err)
		}
		k.Step(2020)
		return len(k.Misses())
	}
	if n := run("laEDF"); n == 0 {
		t.Error("expected laEDF's documented transient miss at offset 20 (did the heuristic change?)")
	}
	if n := run("ccEDF"); n != 0 {
		t.Errorf("ccEDF missed %d — phase robustness broken", n)
	}
}

func TestPhaseRobustMarkers(t *testing.T) {
	robust := map[string]bool{
		"none": true, "noneRM": true, "staticEDF": true, "staticRM": true,
		"ccEDF": true, "ccRM": false, "laEDF": false, "interval": false, "stEDF": false,
	}
	for name, want := range robust {
		p, err := core.ExtendedByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, got := p.(core.PhaseRobustPolicy); got != want {
			t.Errorf("%s: PhaseRobustPolicy = %v, want %v", name, got, want)
		}
	}
}

// A triggered sporadic job that runs to completion allocates nothing:
// the trigger rebuilds the release order in its buffers, and the
// completion moves the job's key back with Order.Later.
func TestSporadicJobZeroAllocs(t *testing.T) {
	k := newTestKernel(t, "ccEDF")
	addPaperExample(t, k, 0.5)
	id, err := k.AddSporadic(TaskConfig{Name: "alarm", Period: 50, WCET: 2})
	if err != nil {
		t.Fatal(err)
	}
	k.Step(100)
	allocs := testing.AllocsPerRun(20, func() {
		if err := k.Trigger(id); err != nil {
			t.Fatal(err)
		}
		k.Step(k.Now() + 50)
	})
	if allocs != 0 {
		t.Errorf("trigger and step: %v allocs, want 0", allocs)
	}
	for _, ts := range k.Tasks() {
		if ts.ID == id && (ts.Completions != ts.Releases || ts.Releases < 20 || ts.Misses != 0) {
			t.Fatalf("sporadic task: %+v, want every triggered job completed", ts)
		}
	}
}
