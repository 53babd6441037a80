package core

import (
	"math"
	"testing"

	"rtdvs/internal/machine"
	"rtdvs/internal/task"
)

// attachGang resolves an extension policy by name and attaches it.
func attachGang(t *testing.T, name string, ts *task.Set, m *machine.Spec) Policy {
	t.Helper()
	p, err := ExtendedByName(name)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Attach(ts, m); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestGangRequired pins the inverted GFB bound: at m = 1 it is the
// uniprocessor utilization bound, unfloored, and at m > 1 it charges the
// parallelism penalty and is floored at lmax (no task may outrun one
// core).
func TestGangRequired(t *testing.T) {
	cases := []struct {
		sum, lmax float64
		m         int
		want      float64
	}{
		{0.7, 0.4, 1, 0.7},        // m=1: alpha = sum
		{0.3, 0.5, 1, 0.3},        // m=1: a lowered reservation is not floored
		{1.2, 0.4, 2, 0.8},        // (1.2 + 0.4)/2
		{0.746, 0.375, 2, 0.5605}, // paper set on 2 cores
		{0.6, 0.7, 4, 0.7},        // lmax floor dominates
		{3.0, 0.5, 4, 1.125},      // over-full aggregate exceeds 1
	}
	for _, c := range cases {
		got := gangRequired(c.sum, c.lmax, c.m)
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("gangRequired(%v, %v, %d) = %v, want %v", c.sum, c.lmax, c.m, got, c.want)
		}
	}
}

// TestGangPolicyMarker: the three gang variants implement GangPolicy;
// the uniprocessor policies do not — the simulator relies on this to
// reject them under global placement.
func TestGangPolicyMarker(t *testing.T) {
	for _, name := range []string{"gangStaticEDF", "gangCCEDF", "gangLAEDF"} {
		p, err := ExtendedByName(name)
		if err != nil {
			t.Fatal(err)
		}
		g, ok := p.(GangPolicy)
		if !ok {
			t.Errorf("%s does not implement GangPolicy", name)
			continue
		}
		g.Gang() // marker only; must be callable
	}
	for _, name := range []string{"ccEDF", "laEDF", "staticEDF"} {
		p, err := ExtendedByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := p.(GangPolicy); ok {
			t.Errorf("uniprocessor %s claims to be a gang policy", name)
		}
	}
}

// TestGangStaticAttach: on 2 cores the static gang policy picks the
// lowest operating point passing the scaled GFB test — 0.75 for the
// paper set (0.5 fails: 2·0.125 + 0.375 = 0.625 < 0.746) — holds it
// while idle, and ignores runtime events entirely.
func TestGangStaticAttach(t *testing.T) {
	ts := task.PaperExample()
	m := machine.Machine0().WithCores(2)
	p := attachGang(t, "gangStaticEDF", ts, m)
	if !p.Guaranteed() {
		t.Error("paper set on 2 cores must pass GFB at full speed")
	}
	if f := p.Point().Freq; f != 0.75 {
		t.Errorf("static gang frequency = %v, want 0.75", f)
	}
	if f := p.IdlePoint().Freq; f != 0.75 {
		t.Errorf("static gang idle frequency = %v, want 0.75 (holds its point)", f)
	}
	sys := &fakeSystem{now: 1, deadlines: []float64{8, 10, 14}}
	p.OnRelease(sys, 0)
	p.OnExecute(0, 1)
	p.OnCompletion(sys, 0, 1)
	if f := p.Point().Freq; f != 0.75 {
		t.Errorf("static gang moved to %v on runtime events", f)
	}

	// A set no frequency admits degrades to full speed, unguaranteed.
	heavy := task.MustSet(
		task.Task{Period: 10, WCET: 9.5},
		task.Task{Period: 10, WCET: 9.5},
		task.Task{Period: 10, WCET: 9.5},
	)
	p = attachGang(t, "gangStaticEDF", heavy, m)
	if p.Guaranteed() {
		t.Error("3×0.95 on 2 cores must not be guaranteed")
	}
	if f := p.Point().Freq; f != 1.0 {
		t.Errorf("unschedulable set frequency = %v, want 1.0", f)
	}
}

// TestGangCCAggregateTracking: cycle-conserving over the aggregate on 2
// cores — completions shrink the reserved utilization and the rail drops
// to the inverted GFB bound; re-releases restore the worst case.
func TestGangCCAggregateTracking(t *testing.T) {
	ts := task.PaperExample()
	m := machine.Machine0().WithCores(2)
	p := attachGang(t, "gangCCEDF", ts, m)
	sys := &fakeSystem{now: 0, deadlines: []float64{8, 10, 14}}

	// Attach charges worst case: required (0.746+0.375)/2 = 0.561 → 0.75.
	if f := p.Point().Freq; f != 0.75 {
		t.Fatalf("initial frequency = %v, want 0.75", f)
	}
	if !p.Guaranteed() {
		t.Error("paper set on 2 cores must be guaranteed under gangCCEDF")
	}

	// T1 completes with 2 of 3: sum = 0.746 − 0.375 + 0.25 = 0.621,
	// required (0.621+0.375)/2 = 0.498 → 0.5.
	sys.now = 2
	p.OnExecute(0, 2)
	p.OnCompletion(sys, 0, 2)
	if f := p.Point().Freq; f != 0.5 {
		t.Errorf("after T1 completion: %v, want 0.5", f)
	}

	// The invariant-checker view re-sums and matches the tracked total.
	ru := p.(interface{ ReservedUtilization() float64 }).ReservedUtilization()
	if math.Abs(ru-0.621428571428571) > 1e-9 {
		t.Errorf("ReservedUtilization = %v, want ~0.6214", ru)
	}

	// Re-release restores the worst case → 0.75 again.
	sys.now = 8
	sys.deadlines[0] = 16
	p.OnRelease(sys, 0)
	if f := p.Point().Freq; f != 0.75 {
		t.Errorf("after T1 re-release: %v, want 0.75", f)
	}

	if f := p.IdlePoint().Freq; f != m.Min().Freq {
		t.Errorf("gangCC idle frequency = %v, want platform minimum", f)
	}
}

// TestGangLACriticalInstant: two half-utilization tasks at a common
// deadline saturate one core but not two — the m-core pacing picks
// (s + (m−1)·x_max)/(m·interval) = 0.75 where uniprocessor laEDF
// needs full speed (TestLAEDFFullUtilizationNeedsFullSpeed).
func TestGangLACriticalInstant(t *testing.T) {
	ts := task.MustSet(
		task.Task{Period: 10, WCET: 5},
		task.Task{Period: 10, WCET: 5},
	)
	m := machine.Machine0().WithCores(2)
	p := attachGang(t, "gangLAEDF", ts, m)
	if p.Guaranteed() {
		t.Error("gangLAEDF must not claim a guarantee at m > 1 (Dhall effect)")
	}
	sys := &fakeSystem{now: 0, deadlines: []float64{10, 10}}
	p.OnRelease(sys, 0)
	p.OnRelease(sys, 1)
	// s = 10, x_max = 5, interval = 10: f = (10+5)/20 = 0.75.
	if f := p.Point().Freq; f != 0.75 {
		t.Errorf("critical-instant frequency = %v, want 0.75", f)
	}

	// Both jobs complete: nothing pending → platform minimum.
	p.OnExecute(0, 5)
	sys.now = 5
	p.OnCompletion(sys, 0, 5)
	p.OnExecute(1, 7) // over-execution clamps cleft at zero
	p.OnCompletion(sys, 1, 5)
	if f := p.Point().Freq; f != m.Min().Freq {
		t.Errorf("drained frequency = %v, want platform minimum", f)
	}
	if f := p.IdlePoint().Freq; f != m.Min().Freq {
		t.Errorf("gangLA idle frequency = %v, want platform minimum", f)
	}
}

// TestGangLADeferral: later-deadline work defers onto the aggregate
// spare capacity, capped at rate 1 per job. Task 2's 8 cycles fit
// entirely into its extra 10 ms window at rate 1, so only task 1's
// 2 cycles must finish before the earliest deadline → f = 0.2 → 0.5.
func TestGangLADeferral(t *testing.T) {
	ts := task.MustSet(
		task.Task{Period: 10, WCET: 2},
		task.Task{Period: 20, WCET: 8},
	)
	m := machine.Machine0().WithCores(2)
	p := attachGang(t, "gangLAEDF", ts, m)
	sys := &fakeSystem{now: 0, deadlines: []float64{10, 20}}
	p.OnRelease(sys, 0)
	p.OnRelease(sys, 1)
	if f := p.Point().Freq; f != 0.5 {
		t.Errorf("deferred frequency = %v, want 0.5", f)
	}

	// At the deadline itself with work still pending, pacing is moot:
	// the rail pins to maximum.
	sys.now = 10
	p.OnRelease(sys, 0)
	if f := p.Point().Freq; f != 1.0 {
		t.Errorf("zero-interval frequency = %v, want 1.0", f)
	}
}

// TestGangM1Degenerate: on a single-core spec each gang variant selects
// the same operating points as its uniprocessor counterpart across the
// paper's Figure 7 event sequence.
func TestGangM1Degenerate(t *testing.T) {
	pairs := map[string]string{
		"gangStaticEDF": "staticEDF",
		"gangCCEDF":     "ccEDF",
		"gangLAEDF":     "laEDF",
	}
	for gang, uni := range pairs {
		ts := task.PaperExample()
		m := machine.Machine0()
		g := attachGang(t, gang, ts, m)
		u := attachGang(t, uni, ts, m)
		if g.Guaranteed() != u.Guaranteed() {
			t.Errorf("%s/%s guarantee differs at m=1", gang, uni)
		}
		gs := &fakeSystem{now: 0, deadlines: []float64{8, 10, 14}}
		us := &fakeSystem{now: 0, deadlines: []float64{8, 10, 14}}
		step := func(what string, f func(p Policy, sys *fakeSystem)) {
			f(g, gs)
			f(u, us)
			if gf, uf := g.Point().Freq, u.Point().Freq; gf != uf {
				t.Errorf("%s %v after %s; %s %v", gang, gf, what, uni, uf)
			}
			if gi, ui := g.IdlePoint().Freq, u.IdlePoint().Freq; gi != ui {
				t.Errorf("%s idle %v after %s; %s %v", gang, gi, what, uni, ui)
			}
		}
		for i := 0; i < 3; i++ {
			step("release", func(p Policy, sys *fakeSystem) { p.OnRelease(sys, i) })
		}
		step("execute", func(p Policy, _ *fakeSystem) { p.OnExecute(0, 2) })
		step("completion", func(p Policy, sys *fakeSystem) {
			sys.now = 8.0 / 3
			p.OnCompletion(sys, 0, 2)
		})
		step("completion", func(p Policy, sys *fakeSystem) {
			sys.now = 14.0 / 3
			p.OnCompletion(sys, 1, 1)
		})
		step("re-release", func(p Policy, sys *fakeSystem) {
			sys.now = 8
			sys.deadlines[0] = 16
			p.OnRelease(sys, 0)
		})
	}
}
