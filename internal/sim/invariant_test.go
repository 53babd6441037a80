package sim

import (
	"strings"
	"testing"

	"rtdvs/internal/core"
	"rtdvs/internal/machine"
	"rtdvs/internal/sched"
	"rtdvs/internal/task"
)

// The negative tests below each violate exactly one invariant through a
// deliberately broken policy (or by driving the checker directly where
// the simulator's own accounting cannot misbehave), and the positive
// tests confirm the real policies run violation-free with the checker
// explicitly enabled. Beyond these, testing.Testing() keeps the checker
// live in every other simulation test in the repository.

// evilBase supplies the boring parts of a fake policy.
type evilBase struct {
	m *machine.Spec
}

func (p *evilBase) Name() string          { return "evil" }
func (p *evilBase) Scheduler() sched.Kind { return sched.EDF }
func (p *evilBase) Attach(_ *task.Set, m *machine.Spec) error {
	p.m = m
	return nil
}
func (p *evilBase) Guaranteed() bool                       { return true }
func (p *evilBase) OnRelease(core.System, int)             {}
func (p *evilBase) OnCompletion(core.System, int, float64) {}
func (p *evilBase) OnExecute(int, float64)                 {}
func (p *evilBase) Point() machine.OperatingPoint          { return p.m.Max() }
func (p *evilBase) IdlePoint() machine.OperatingPoint      { return p.m.Min() }

// offGridPolicy selects an operating point the machine does not have.
type offGridPolicy struct{ evilBase }

func (p *offGridPolicy) Point() machine.OperatingPoint {
	return machine.OperatingPoint{Freq: 0.123, Voltage: 0.456}
}

// overReservePolicy claims a guarantee while reserving more than the
// full-speed capacity.
type overReservePolicy struct{ evilBase }

func (p *overReservePolicy) ReservedUtilization() float64 { return 1.5 }

// falseGuaranteePolicy claims a guarantee but pins the processor at the
// minimum frequency, so an infeasible-at-min set must miss.
type falseGuaranteePolicy struct{ evilBase }

func (p *falseGuaranteePolicy) Point() machine.OperatingPoint { return p.m.Min() }

func invariantConfig(t *testing.T, p core.Policy) Config {
	t.Helper()
	ts, err := task.NewSet(task.Task{Period: 10, WCET: 6})
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Tasks:           ts,
		Machine:         machine.Machine0(),
		Policy:          p,
		Horizon:         50,
		CheckInvariants: true,
	}
}

func wantViolation(t *testing.T, cfg Config, fragment string) {
	t.Helper()
	res, err := Run(cfg)
	if err == nil {
		t.Fatalf("Run succeeded (result %+v), want invariant violation mentioning %q", res, fragment)
	}
	if !strings.Contains(err.Error(), fragment) {
		t.Fatalf("violation %q does not mention %q", err, fragment)
	}
}

func TestInvariantOffGridPoint(t *testing.T) {
	wantViolation(t, invariantConfig(t, &offGridPolicy{}), "not one of the machine's discrete points")
}

func TestInvariantOverReservation(t *testing.T) {
	wantViolation(t, invariantConfig(t, &overReservePolicy{}), "reserves utilization")
}

func TestInvariantFalseGuarantee(t *testing.T) {
	// Machine0's minimum frequency is 0.5, so U = 0.6 cannot be served:
	// a policy that guarantees the set anyway must trip the miss check.
	wantViolation(t, invariantConfig(t, &falseGuaranteePolicy{}), "missed its deadline")
}

// TestInvariantEnergyMonotone drives the checker directly: the
// simulator's own accounting only ever adds energy, so a regression is
// modeled by rewinding the result counters between checks.
func TestInvariantEnergyMonotone(t *testing.T) {
	s := &simulator{}
	c := &invariantChecker{s: s}

	s.res.ExecEnergy = 5
	c.checkEnergy()
	if c.Err() != nil {
		t.Fatalf("monotone increase flagged: %v", c.Err())
	}
	s.res.ExecEnergy = 3
	c.checkEnergy()
	if err := c.Err(); err == nil || !strings.Contains(err.Error(), "energy decreased") {
		t.Fatalf("want energy-decrease violation, got %v", err)
	}

	s2 := &simulator{}
	c2 := &invariantChecker{s: s2}
	s2.res.IdleEnergy = -1
	c2.checkEnergy()
	if err := c2.Err(); err == nil || !strings.Contains(err.Error(), "negative energy") {
		t.Fatalf("want negative-energy violation, got %v", err)
	}
}

// TestInvariantReservationBoundPerSlot drives the utilization check
// directly: a policy reserving 1.5 fits the capacity of two run slots
// but not of one.
func TestInvariantReservationBoundPerSlot(t *testing.T) {
	p := &overReservePolicy{}
	s := &simulator{m: 2}
	s.cfg.Policy = p
	c := &invariantChecker{s: s, ur: p, guaranteed: true}
	c.checkUtilization()
	if c.Err() != nil {
		t.Fatalf("reservation within two slots flagged: %v", c.Err())
	}
	s.m = 1
	c.checkUtilization()
	if err := c.Err(); err == nil || !strings.Contains(err.Error(), "reserves utilization 1.5 > 1") {
		t.Fatalf("want over-reservation violation, got %v", err)
	}
}

// TestInvariantSlotOccupancy drives the occupancy check directly: the
// slot assignment itself never places an inactive job or one job twice,
// so both violations are modeled by editing the slots.
func TestInvariantSlotOccupancy(t *testing.T) {
	s := &simulator{states: make([]taskState, 2), running: []int{0, -1, 1}}
	s.states[0].active, s.states[1].active = true, true
	c := &invariantChecker{s: s}
	c.checkOccupancy()
	if c.Err() != nil {
		t.Fatalf("valid assignment flagged: %v", c.Err())
	}
	s.running = []int{1, -1, 1}
	c.checkOccupancy()
	if err := c.Err(); err == nil || !strings.Contains(err.Error(), "task 1 scheduled on cores 0 and 2 at once") {
		t.Fatalf("want double-occupancy violation, got %v", err)
	}

	c = &invariantChecker{s: s}
	s.running = []int{-1, 0, -1}
	s.states[0].active = false
	c.checkOccupancy()
	if err := c.Err(); err == nil || !strings.Contains(err.Error(), "inactive task 0 scheduled on core 1") {
		t.Fatalf("want inactive-job violation, got %v", err)
	}
}

// corruptingPolicy seeds one fault into the engine at its first release
// callback, after the release order and the run queue have been updated,
// so the next scheduling point's O(n) scan has something to catch.
type corruptingPolicy struct {
	evilBase
	kind    sched.Kind
	corrupt func(s *simulator)
	done    bool
}

func (p *corruptingPolicy) Scheduler() sched.Kind { return p.kind }

func (p *corruptingPolicy) OnRelease(sys core.System, _ int) {
	if !p.done {
		p.done = true
		p.corrupt(sys.(*simulator))
	}
}

// TestInvariantPickOrder seeds one fault each into the ready bitmask,
// under EDF (the deadline order) and RM (the static period order), and
// into the release order's head key; the pick check must report each.
func TestInvariantPickOrder(t *testing.T) {
	ts, err := task.NewSet(
		task.Task{Period: 10.5, WCET: 2},
		task.Task{Period: 21, WCET: 3},
		task.Task{Period: 42, WCET: 5},
	)
	if err != nil {
		t.Fatal(err)
	}
	dropFirst := func(s *simulator) { s.readyBits &= s.readyBits - 1 }
	for _, c := range []struct {
		name     string
		kind     sched.Kind
		corrupt  func(s *simulator)
		fragment string
	}{
		{"EDF ready bit", sched.EDF, dropFirst, "active tasks come at or before it"},
		{"RM ready bit", sched.RM, dropFirst, "active tasks come at or before it"},
		{"release order", sched.EDF, func(s *simulator) { s.ordKey[0]++ }, "but the earliest deadline is"},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := Config{Tasks: ts, Machine: machine.Machine0(), Horizon: 100, CheckInvariants: true}
			cfg.Policy = &corruptingPolicy{kind: c.kind, corrupt: func(*simulator) {}}
			if _, err := Run(cfg); err != nil {
				t.Fatalf("uncorrupted run: %v", err)
			}
			cfg.Policy = &corruptingPolicy{kind: c.kind, corrupt: c.corrupt}
			wantViolation(t, cfg, c.fragment)
		})
	}
}

// TestInvariantGlobalPickOrder drives a global segment's pick check
// directly: the picks must be the first m active tasks in (deadline,
// index) order, in that order.
func TestInvariantGlobalPickOrder(t *testing.T) {
	s := &simulator{kind: sched.EDF, m: 2, ordKey: []float64{5, 7, 9}}
	s.states = []taskState{{deadline: 9, active: true}, {deadline: 5, active: true}, {deadline: 7, active: true}}
	c := &invariantChecker{s: s}
	s.picks = []int{1, 2}
	c.checkPicks()
	if c.Err() != nil {
		t.Fatalf("valid picks flagged: %v", c.Err())
	}
	for _, bad := range []struct {
		picks    []int
		fragment string
	}{
		{[]int{2, 1}, "out of (key, index) order"},
		{[]int{1, 0}, "come at or before it"},
		{[]int{1}, "picked 1 of 3 active tasks, with room for 2"},
	} {
		c := &invariantChecker{s: s}
		s.picks = bad.picks
		c.checkPicks()
		if err := c.Err(); err == nil || !strings.Contains(err.Error(), bad.fragment) {
			t.Errorf("picks %v: want a violation mentioning %q, got %v", bad.picks, bad.fragment, err)
		}
	}
}

// TestInvariantsCleanOnRealPolicies runs every registered policy over a
// schedulable set with the checker explicitly enabled: the positive
// counterpart of the violation tests above.
func TestInvariantsCleanOnRealPolicies(t *testing.T) {
	ts, err := task.NewSet(
		task.Task{Period: 8, WCET: 2},
		task.Task{Period: 10, WCET: 1},
		task.Task{Period: 14, WCET: 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range core.All() {
		cfg := Config{
			Tasks:           ts,
			Machine:         machine.Machine0(),
			Policy:          p,
			Horizon:         280,
			CheckInvariants: true,
		}
		res, err := Run(cfg)
		if err != nil {
			t.Errorf("%s: %v", p.Name(), err)
			continue
		}
		if !res.Guaranteed {
			t.Errorf("%s: schedulable set not admitted", p.Name())
		}
		if len(res.Misses) != 0 {
			t.Errorf("%s: %d misses on a guaranteed set", p.Name(), len(res.Misses))
		}
	}
}

// TestUtilizationReporters pins that the two dynamic EDF policies expose
// their bookkeeping: without this the utilization invariant silently
// checks nothing.
func TestUtilizationReporters(t *testing.T) {
	for _, name := range []string{"ccEDF", "laEDF"} {
		p, err := core.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := p.(UtilizationReporter); !ok {
			t.Errorf("%s does not implement UtilizationReporter", name)
		}
	}
}
