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

// orderBlind runs a policy on orderless views of the system, so the
// policy builds the deadline order itself, as it does in the rtos kernel.
// It forwards what the simulator asks of a policy beyond core.Policy:
// overrun notices, the utilization the invariant checker audits, and the
// gang marker of a global run.
type orderBlind struct{ core.Policy }

func (p orderBlind) OnRelease(sys core.System, i int) {
	p.Policy.OnRelease(orderless{sys}, i)
}

func (p orderBlind) OnCompletion(sys core.System, i int, used float64) {
	p.Policy.OnCompletion(orderless{sys}, i, used)
}

func (p orderBlind) OnOverrun(sys core.System, i int) {
	if oa, ok := p.Policy.(core.OverrunAware); ok {
		oa.OnOverrun(orderless{sys}, i)
	}
}

func (p orderBlind) ReservedUtilization() float64 {
	if ur, ok := p.Policy.(UtilizationReporter); ok {
		return ur.ReservedUtilization()
	}
	return 0
}

func (p orderBlind) Gang() {}

// orderPolicies are the policies that read deadlines at their hooks.
var orderPolicies = []string{"laEDF", "ccRM", "laEDF+contain", "ccRM+contain"}

// runGlobalWith runs cfg on mr with the policy instance p in place of
// the one cfg.Policy names.
func runGlobalWith(mr *MultiRunner, cfg MultiConfig, p core.Policy) (*MultiResult, error) {
	mr.polName, mr.pols = cfg.Policy, append(mr.pols[:0], p)
	return mr.Run(cfg)
}

// orderSources runs every policy that reads deadlines on ts twice, once
// reading the simulator's deadline order and once through orderBlind,
// and requires identical results, errors included: the scalar policies
// of orderPolicies and global gangLAEDF on each of cores, under each exec
// spec and switch overhead. It returns how many direct runs the
// simulator kept its order for, and how many (heap runs) it did not.
func orderSources(t *testing.T, ts *task.Set, horizon float64, cores []int, execs []string, overheads []*machine.SwitchOverhead) (ordered, unordered int) {
	t.Helper()
	r, rb := NewRunner(), NewRunner()
	mr, mrb := NewMultiRunner(), NewMultiRunner()
	count := func(s *simulator) {
		if !s.heaps {
			ordered++
		} else {
			unordered++
		}
	}
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
				want, wantErr := run(r, mustExtended(t, name))
				count(&r.s)
				got, gotErr := run(rb, orderBlind{mustExtended(t, name)})
				requireSameRun(t, label, got, want, gotErr, wantErr)
			}
			for _, m := range cores {
				label := fmt.Sprintf("gangLAEDF/m=%d/%s/overhead=%v on %v", m, spec, ov != nil, ts)
				cfg := MultiConfig{Tasks: ts, Machine: machine.Machine1().WithCores(m), Policy: "gangLAEDF",
					Placement: sched.Global, Exec: spec, Seed: 7, Horizon: horizon, Overhead: ov}
				want, wantErr := mr.Run(cfg)
				count(&mr.g)
				got, gotErr := runGlobalWith(mrb, cfg, orderBlind{mustExtended(t, "gangLAEDF")})
				requireSameRun(t, label, got, want, gotErr, wantErr)
			}
		}
	}
	return ordered, unordered
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
// overload, single frames, 63/64/65 tasks), without and with switch
// overhead. Sets of more than 64 tasks keep no order, so both runs take
// the fallback there; the rest must exercise the order.
func TestDeadlineOrderMatchesFallback(t *testing.T) {
	overheads := []*machine.SwitchOverhead{nil, {FreqOnly: 0.041, VoltageChange: 0.4}}
	var ordered, unordered int
	for _, sh := range queueShapes(t) {
		o, u := orderSources(t, sh.ts, sh.horizon, []int{2, 4}, []string{"wcet", "uniform"}, overheads)
		ordered += o
		unordered += u
	}
	if ordered == 0 || unordered == 0 {
		t.Fatalf("%d direct runs read the simulator's order and %d did not; want both paths exercised", ordered, unordered)
	}
}

// orderProbe wraps a policy and checks, at every release and completion
// hook, the deadline order the system hands it (core.OrderedSystem): it
// counts the hooks that got one and the hooks that did not, and requires
// a handed order to hold every task once, in (deadline, index) order,
// with each key its task's current deadline.
type orderProbe struct {
	core.Policy
	t             *testing.T
	n             int
	with, without int
}

func (p *orderProbe) Attach(ts *task.Set, m *machine.Spec) error {
	p.n = ts.Len()
	return p.Policy.Attach(ts, m)
}

func (p *orderProbe) probe(sys core.System) {
	var order []int
	var keys []float64
	if o, ok := sys.(core.OrderedSystem); ok {
		order, keys = o.DeadlineOrder()
	}
	if order == nil {
		p.without++
		return
	}
	p.with++
	if len(order) != p.n || len(keys) != p.n {
		p.t.Fatalf("t=%g: an order of %d tasks with %d keys for %d tasks", sys.Now(), len(order), len(keys), p.n)
	}
	for k, i := range order {
		if d := sys.Deadline(i); keys[k] < d || keys[k] > d {
			p.t.Fatalf("t=%g: order key %g at position %d, but task %d's deadline is %g", sys.Now(), keys[k], k, i, d)
		}
		if k > 0 && !core.OrderBefore(keys[k-1], order[k-1], keys[k], i) {
			p.t.Fatalf("t=%g: task %d after task %d is out of (deadline, index) order", sys.Now(), i, order[k-1])
		}
	}
}

func (p *orderProbe) OnRelease(sys core.System, i int) {
	p.probe(sys)
	p.Policy.OnRelease(sys, i)
}

func (p *orderProbe) OnCompletion(sys core.System, i int, used float64) {
	p.probe(sys)
	p.Policy.OnCompletion(sys, i, used)
}

// TestEveryBitmaskRunKeepsTheOrder requires the simulator to hand its
// deadline order to every policy hook of every run of up to 64 tasks,
// whatever the set's grid, frame, scheduling discipline or fault
// injector, and to hand none to a run of 65 tasks, which keeps heaps.
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
		order  bool
	}{
		{"integral under EDF", integral, "ccEDF", false, true},
		{"integral under RM", integral, "ccRM", false, true},
		{"single frame under EDF", frame, "ccEDF", false, true},
		{"single frame under RM", frame, "ccRM", false, true},
		{"non-integral", mustSet(t, task.Task{Period: 10.5, WCET: 2}, task.Task{Period: 14, WCET: 3}), "ccEDF", false, true},
		{"faulted", frame, "ccEDF", true, true},
		{"64 tasks", quantisedSet(t, 64, 0.8, 1, 64), "ccEDF", false, true},
		{"65 tasks", quantisedSet(t, 65, 0.8, 1, 65), "ccEDF", false, false},
	}
	r := NewRunner()
	for _, c := range cases {
		p := &orderProbe{Policy: mustPolicy(t, c.policy), t: t}
		cfg := Config{Tasks: c.ts, Machine: machine.Machine0(), Policy: p, Horizon: 100}
		if c.faults {
			cfg.Faults = fault.MustNew(fault.Plan{Seed: 3})
		}
		if _, err := r.Run(cfg); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		switch {
		case p.with+p.without == 0:
			t.Errorf("%s: no policy hook ran", c.name)
		case c.order && p.without > 0:
			t.Errorf("%s: %d of %d hooks got no deadline order", c.name, p.without, p.with+p.without)
		case !c.order && p.with > 0:
			t.Errorf("%s: %d of %d hooks got a deadline order from a heap run", c.name, p.with, p.with+p.without)
		}
	}
}
