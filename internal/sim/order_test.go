package sim

import (
	"fmt"
	"reflect"
	"testing"

	"rtdvs/internal/core"
	"rtdvs/internal/fault"
	"rtdvs/internal/machine"
	"rtdvs/internal/sched"
	"rtdvs/internal/task"
)

// orderless is a core.System without the deadline order: embedding the
// interface hides the simulator's DeadlineOrder method.
type orderless struct{ core.System }

// orderBlind is a viewPolicy view that hides the deadline order, so the
// policy builds the order itself, as it does in the rtos kernel.
func orderBlind(sys core.System) core.System { return orderless{sys} }

// viewPolicy runs a policy on view(sys) in place of the system at every
// hook. It forwards what the simulator asks of a policy beyond
// core.Policy: overrun notices, the utilization the invariant checker
// audits, and the gang marker of a global run.
type viewPolicy struct {
	core.Policy
	view func(core.System) core.System
}

func (p viewPolicy) OnRelease(sys core.System, i int) {
	p.Policy.OnRelease(p.view(sys), i)
}

func (p viewPolicy) OnCompletion(sys core.System, i int, used float64) {
	p.Policy.OnCompletion(p.view(sys), i, used)
}

func (p viewPolicy) OnOverrun(sys core.System, i int) {
	if oa, ok := p.Policy.(core.OverrunAware); ok {
		oa.OnOverrun(p.view(sys), i)
	}
}

func (p viewPolicy) ReservedUtilization() float64 {
	if ur, ok := p.Policy.(UtilizationReporter); ok {
		return ur.ReservedUtilization()
	}
	return 0
}

func (p viewPolicy) Gang() {}

// orderCheck's view passes the system through and checks, at every
// hook, the deadline order it hands the policy (core.OrderedSystem): it
// counts the hooks and the hooks that got no order, and requires a
// handed order to hold all n tasks once, in (deadline, index) order,
// with each key its task's current deadline.
type orderCheck struct {
	t              *testing.T
	n              int
	hooks, missing int
}

func (c *orderCheck) view(sys core.System) core.System {
	c.hooks++
	var order []int
	var keys []float64
	if o, ok := sys.(core.OrderedSystem); ok {
		order, keys = o.DeadlineOrder()
	}
	if order == nil {
		c.missing++
		return sys
	}
	if len(order) != c.n || len(keys) != c.n {
		c.t.Fatalf("t=%g: an order of %d tasks with %d keys for %d tasks", sys.Now(), len(order), len(keys), c.n)
	}
	for k, i := range order {
		if d := sys.Deadline(i); keys[k] < d || keys[k] > d {
			c.t.Fatalf("t=%g: order key %g at position %d, but task %d's deadline is %g", sys.Now(), keys[k], k, i, d)
		}
		if k > 0 && !sched.Before(keys[k-1], order[k-1], keys[k], i) {
			c.t.Fatalf("t=%g: task %d after task %d is out of (deadline, index) order", sys.Now(), i, order[k-1])
		}
	}
	return sys
}

// orderPolicies are the policies that read deadlines at their hooks.
var orderPolicies = []string{"laEDF", "ccRM", "laEDF+contain", "ccRM+contain"}

// runGlobalWith runs cfg on mr with the policy instance p in place of
// the one cfg.Policy names.
func runGlobalWith(mr *MultiRunner, cfg MultiConfig, p core.Policy) (*MultiResult, error) {
	mr.polName, mr.pols = cfg.Policy, append(mr.pols[:0], p)
	return mr.Run(cfg)
}

// orderSources runs every policy that reads deadlines on ts twice, once
// reading the simulator's deadline order through an orderCheck and once
// through orderBlind, and requires identical results, errors included:
// the scalar policies of orderPolicies and global gangLAEDF on each of
// cores, under each exec spec and switch overhead. Every hook of every
// direct run must get the simulator's order.
func orderSources(t *testing.T, ts *task.Set, horizon float64, cores []int, execs []string, overheads []*machine.SwitchOverhead) {
	t.Helper()
	r, rb := NewRunner(), NewRunner()
	mr, mrb := NewMultiRunner(), NewMultiRunner()
	check := &orderCheck{t: t, n: ts.Len()}
	for _, spec := range execs {
		for _, ov := range overheads {
			for _, name := range orderPolicies {
				label := fmt.Sprintf("%s/%s/overhead=%v on %v", name, spec, ov != nil, ts)
				run := func(r *Runner, p core.Policy) (*Result, error) {
					exec, err := task.ParseExec(spec, 7)
					if err != nil {
						t.Fatal(err)
					}
					return r.Run(Config{Tasks: ts, Machine: machine.Machine1(), Policy: p, Exec: exec, Horizon: horizon, Overhead: ov})
				}
				want, wantErr := run(r, viewPolicy{mustExtended(t, name), check.view})
				got, gotErr := run(rb, viewPolicy{mustExtended(t, name), orderBlind})
				requireSameRun(t, label, got, want, gotErr, wantErr)
			}
			for _, m := range cores {
				label := fmt.Sprintf("gangLAEDF/m=%d/%s/overhead=%v on %v", m, spec, ov != nil, ts)
				cfg := MultiConfig{Tasks: ts, Machine: machine.Machine1().WithCores(m), Policy: "gangLAEDF",
					Placement: sched.Global, Exec: spec, Seed: 7, Horizon: horizon, Overhead: ov}
				want, wantErr := runGlobalWith(mr, cfg, viewPolicy{mustExtended(t, "gangLAEDF"), check.view})
				got, gotErr := runGlobalWith(mrb, cfg, viewPolicy{mustExtended(t, "gangLAEDF"), orderBlind})
				requireSameRun(t, label, got, want, gotErr, wantErr)
			}
		}
	}
	if check.hooks == 0 || check.missing > 0 {
		t.Errorf("on %v: %d of %d hooks of the direct runs got no deadline order", ts, check.missing, check.hooks)
	}
}

// requireSameRun requires a run without the deadline order to agree
// exactly with its twin that read it, in the result or the error. The
// twins run on runners that have run the same configurations before, so
// even their empty slices agree.
func requireSameRun(t *testing.T, label string, got, want any, gotErr, wantErr error) {
	t.Helper()
	switch {
	case (gotErr != nil) != (wantErr != nil):
		t.Errorf("%s: without the order err=%v, with it err=%v", label, gotErr, wantErr)
	case gotErr != nil:
		if gotErr.Error() != wantErr.Error() {
			t.Errorf("%s: without the order err %q, with it %q", label, gotErr, wantErr)
		}
	case !reflect.DeepEqual(got, want):
		t.Errorf("%s: the run without the order diverged\nwithout: %+v\nwith:    %+v", label, got, want)
	}
}

// TestDeadlineOrderMatchesFallback checks the two sources of the
// deadline order against each other: laEDF, ccRM, their contained
// variants and gangLAEDF at m ∈ {2, 4} must give identical results
// reading the simulator's order and sorting their own, on every shape of
// TestQueueShapesPinned (ties, phases on and off the integer grid,
// overload, single frames, 63 to 200 tasks), without and with switch
// overhead. Every hook of every direct run must read the simulator's
// order, whatever the set's size.
func TestDeadlineOrderMatchesFallback(t *testing.T) {
	overheads := []*machine.SwitchOverhead{nil, {FreqOnly: 0.041, VoltageChange: 0.4}}
	for _, sh := range queueShapes(t) {
		orderSources(t, sh.ts, sh.horizon, []int{2, 4}, []string{"wcet", "uniform"}, overheads)
	}
}

// TestEveryBitmaskRunKeepsTheOrder requires the simulator to hand its
// deadline order to every policy hook of every run, whatever the set's
// grid, frame, scheduling discipline, fault injector or size: the sets
// of 65, 128 and 129 tasks hold their ready sets in two and three words.
func TestEveryBitmaskRunKeepsTheOrder(t *testing.T) {
	integral := harmonicSet(t,
		task.Task{Period: 10, WCET: 2},
		task.Task{Period: 20, WCET: 4, Phase: 5})
	frame := harmonicSet(t,
		task.Task{Period: 20, WCET: 4},
		task.Task{Period: 20, WCET: 3})
	cases := []struct {
		name   string
		ts     *task.Set
		policy string
		faults bool
	}{
		{"integral under EDF", integral, "ccEDF", false},
		{"integral under RM", integral, "ccRM", false},
		{"single frame under EDF", frame, "ccEDF", false},
		{"single frame under RM", frame, "ccRM", false},
		{"non-integral", mustSet(t, task.Task{Period: 10.5, WCET: 2}, task.Task{Period: 14, WCET: 3}), "ccEDF", false},
		{"faulted", frame, "ccEDF", true},
		{"64 tasks", quantisedSet(t, 64, 0.8, 1, 64), "ccEDF", false},
		{"65 tasks", quantisedSet(t, 65, 0.8, 1, 65), "ccEDF", false},
		{"128 tasks under RM", quantisedSet(t, 128, 0.8, 1, 128), "ccRM", false},
		{"129 tasks", quantisedSet(t, 129, 0.8, 1.5, 129), "ccEDF", false},
	}
	r := NewRunner()
	for _, c := range cases {
		check := &orderCheck{t: t, n: c.ts.Len()}
		cfg := Config{Tasks: c.ts, Machine: machine.Machine0(), Policy: viewPolicy{mustPolicy(t, c.policy), check.view}, Horizon: 100}
		if c.faults {
			cfg.Faults = fault.MustNew(fault.Plan{Seed: 3})
		}
		if _, err := r.Run(cfg); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		switch {
		case check.hooks == 0:
			t.Errorf("%s: no policy hook ran", c.name)
		case check.missing > 0:
			t.Errorf("%s: %d of %d hooks got no deadline order", c.name, check.missing, check.hooks)
		}
	}
}
