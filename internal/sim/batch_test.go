package sim

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"rtdvs/internal/core"
	"rtdvs/internal/fault"
	"rtdvs/internal/machine"
	"rtdvs/internal/task"
	"rtdvs/internal/trace"
)

// harmonicSet builds an exactly-integral harmonic task set, the
// frame-based shape of the paper's periodic workloads.
func harmonicSet(t testing.TB, tasks ...task.Task) *task.Set {
	t.Helper()
	ts, err := task.NewSet(tasks...)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ts.Hyperperiod(); !ok {
		t.Fatal("test set is not harmonic")
	}
	return ts
}

// paperPolicies are the paper's six RT-DVS policies.
var paperPolicies = []string{"none", "staticEDF", "staticRM", "ccEDF", "ccRM", "laEDF"}

// harmonicShapes are hand-built integral task sets — with phases, with
// switch overhead, with clustered frame releases — whose releases
// coincide often. Each call returns a fresh Config without Policy and
// Machine.
var harmonicShapes = []func(t testing.TB) Config{
	func(t testing.TB) Config { // pure frame-based: all periods equal
		return Config{
			Tasks: harmonicSet(t,
				task.Task{Period: 20, WCET: 4},
				task.Task{Period: 20, WCET: 3},
				task.Task{Period: 20, WCET: 5},
			),
			Exec:    task.ConstantFraction{C: 0.7},
			Horizon: 500,
		}
	},
	func(t testing.TB) Config { // nested harmonic periods with phases
		return Config{
			Tasks: harmonicSet(t,
				task.Task{Period: 10, WCET: 2, Phase: 3},
				task.Task{Period: 20, WCET: 4},
				task.Task{Period: 40, WCET: 9, Phase: 7},
				task.Task{Period: 40, WCET: 3},
			),
			Exec:    task.UniformFraction{Lo: 0.2, Hi: 1, Rand: rand.New(rand.NewSource(9))},
			Horizon: 777.5,
		}
	},
	func(t testing.TB) Config { // switch overhead: halts jump time across releases
		return Config{
			Tasks: harmonicSet(t,
				task.Task{Period: 8, WCET: 3},
				task.Task{Period: 16, WCET: 5},
			),
			Exec:     task.FullWCET{},
			Horizon:  333,
			Overhead: &machine.SwitchOverhead{FreqOnly: 0.1, VoltageChange: 0.4},
		}
	},
}

// harmonicConfig builds harmonic shape mk under a fresh instance of the
// named policy on Machine1.
func harmonicConfig(t *testing.T, mk func(testing.TB) Config, policy string) Config {
	t.Helper()
	cfg := mk(t)
	cfg.Policy = mustPolicy(t, policy)
	cfg.Machine = machine.Machine1()
	return cfg
}

// batchTestConfigs builds a varied batch: the scalar runner test's
// generated (non-harmonic) shapes across all six policies, plus the
// harmonic shapes under each of them.
func batchTestConfigs(t *testing.T) []func() Config {
	t.Helper()
	mk := runnerTestConfigs(t)
	for _, pname := range paperPolicies {
		for _, mkh := range harmonicShapes {
			mk = append(mk, func() Config { return harmonicConfig(t, mkh, pname) })
		}
	}
	return mk
}

// requireSameAsScalar asserts a batch lane's (result, error) pair is
// identical to the scalar Runner's for the same configuration. Errors
// must agree too (some deliberately-harsh shapes trip the deadline
// invariant under guaranteeing policies — the batch engine must
// reproduce exactly that failure).
func requireSameAsScalar(t *testing.T, label string, got *Result, gotErr error, want *Result, wantErr error) {
	t.Helper()
	if (gotErr != nil) != (wantErr != nil) {
		t.Errorf("%s: batch err=%v, scalar err=%v", label, gotErr, wantErr)
		return
	}
	if gotErr != nil {
		if gotErr.Error() != wantErr.Error() {
			t.Errorf("%s: batch err %q, scalar err %q", label, gotErr, wantErr)
		}
		return
	}
	if !reflect.DeepEqual(normalizeResult(got), normalizeResult(want)) {
		t.Errorf("%s: batch diverged from scalar\nbatch:  %+v\nscalar: %+v", label, got, want)
	}
}

// The batch contract: every per-lane BatchRunner result must be
// bit-identical (DeepEqual) to the scalar Runner's result for the same
// configuration, across all six policies and both generated and
// harmonic workload shapes, with the invariant checker live (it always
// is under go test) and the batch reused across passes.
func TestBatchMatchesScalarAcrossPolicies(t *testing.T) {
	mks := batchTestConfigs(t)
	br := NewBatchRunner()
	for pass := 0; pass < 2; pass++ {
		cfgs := make([]Config, len(mks))
		for i, mk := range mks {
			cfgs[i] = mk()
		}
		results, errs := br.Run(cfgs)
		for i, mk := range mks {
			want, wantErr := Run(mk())
			requireSameAsScalar(t, fmt.Sprintf("pass %d lane %d", pass, i), results[i], errs[i], want, wantErr)
		}
	}
}

func mustSet(t testing.TB, tasks ...task.Task) *task.Set {
	t.Helper()
	ts, err := task.NewSet(tasks...)
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

// A batch of one must equal the scalar Runner exactly.
func TestBatchOfOneEqualsScalar(t *testing.T) {
	for ci, mk := range batchTestConfigs(t) {
		results, errs := RunBatch([]Config{mk()})
		want, wantErr := Run(mk())
		requireSameAsScalar(t, fmt.Sprintf("cfg %d", ci), results[0], errs[0], want, wantErr)
	}
}

// Metamorphic: permuting the lane order must leave every per-lane
// result bit-identical — lanes are independent, so their order cannot
// matter.
func TestBatchLanePermutationInvariant(t *testing.T) {
	mks := batchTestConfigs(t)
	n := len(mks)
	perm := rand.New(rand.NewSource(5)).Perm(n)

	cfgs := make([]Config, n)
	for i, mk := range mks {
		cfgs[i] = mk()
	}
	base, errs := NewBatchRunner().Run(cfgs)
	baseClones := make([]*Result, n)
	for i, r := range base {
		if r != nil {
			baseClones[i] = r.Clone()
		}
	}

	permuted := make([]Config, n)
	for pi, src := range perm {
		permuted[pi] = mks[src]()
	}
	permRes, permErrs := NewBatchRunner().Run(permuted)
	for pi, src := range perm {
		requireSameAsScalar(t, fmt.Sprintf("lane %d (orig %d)", pi, src),
			permRes[pi], permErrs[pi], baseClones[src], errs[src])
	}
}

// Lanes with fault injection (which runs the heaps) or trace recording
// mixed with plain lanes must still report every lane identical to a
// standalone scalar run.
func TestBatchMixedFallbackLanes(t *testing.T) {
	mkFault := func() *fault.Injector {
		return fault.MustNew(fault.Plan{Seed: 11, OverrunProb: 0.3, OverrunFactor: 1.5})
	}
	ts := harmonicSet(t,
		task.Task{Period: 10, WCET: 3},
		task.Task{Period: 20, WCET: 5},
	)
	gen := func() *task.Set {
		r := rand.New(rand.NewSource(321))
		s, err := (&task.Generator{N: 4, Utilization: 0.8, Rand: r}).Generate()
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	mks := []func() Config{
		func() Config {
			p, _ := core.ByName("ccEDF")
			return Config{Tasks: ts, Machine: machine.Machine0(), Policy: p, Horizon: 200,
				Faults: mkFault()}
		},
		func() Config {
			p, _ := core.ByName("ccEDF")
			return Config{Tasks: ts, Machine: machine.Machine0(), Policy: p, Horizon: 200}
		},
		func() Config {
			p, _ := core.ByName("laEDF")
			return Config{Tasks: gen(), Machine: machine.Machine2(), Policy: p, Horizon: 150,
				Recorder: new(trace.Recorder)}
		},
		func() Config {
			p, _ := core.ByName("laEDF")
			return Config{Tasks: gen(), Machine: machine.Machine2(), Policy: p, Horizon: 150}
		},
	}
	cfgs := make([]Config, len(mks))
	for i, mk := range mks {
		cfgs[i] = mk()
	}
	results, errs := RunBatch(cfgs)
	for i, mk := range mks {
		if errs[i] != nil {
			t.Fatalf("lane %d: %v", i, errs[i])
		}
		want, err := Run(mk())
		if err != nil {
			t.Fatalf("lane %d scalar: %v", i, err)
		}
		if !reflect.DeepEqual(normalizeResult(results[i]), normalizeResult(want)) {
			t.Errorf("lane %d (%s): mixed batch diverged from scalar", i, want.Policy)
		}
	}
}

// Sharing one Policy instance between two lanes must be rejected: the
// batch contract gives every lane its own instance.
func TestBatchRejectsSharedPolicyInstance(t *testing.T) {
	p, err := core.ByName("ccEDF")
	if err != nil {
		t.Fatal(err)
	}
	ts := harmonicSet(t, task.Task{Period: 10, WCET: 2})
	cfgs := []Config{
		{Tasks: ts, Machine: machine.Machine0(), Policy: p, Horizon: 50},
		{Tasks: ts, Machine: machine.Machine0(), Policy: p, Horizon: 50},
	}
	results, errs := RunBatch(cfgs)
	if errs[0] != nil {
		t.Errorf("first lane with the instance should run: %v", errs[0])
	}
	if results[0] == nil {
		t.Error("first lane returned no result")
	}
	if errs[1] == nil {
		t.Error("second lane sharing the Policy instance should be rejected")
	}
}

// Per-lane validation errors must match the scalar Runner's and leave
// the other lanes untouched.
func TestBatchPerLaneErrors(t *testing.T) {
	good, _ := core.ByName("ccEDF")
	cfgs := []Config{
		{Machine: machine.Machine0(), Policy: good, Horizon: 50},                                          // no tasks
		{Tasks: harmonicSet(t, task.Task{Period: 10, WCET: 2}), Policy: good, Horizon: 50},                // nil machine
		{Tasks: harmonicSet(t, task.Task{Period: 10, WCET: 2}), Machine: machine.Machine0(), Horizon: 50}, // nil policy
		{Tasks: harmonicSet(t, task.Task{Period: 10, WCET: 2}), Machine: machine.Machine0(), Policy: good, Horizon: 50},
	}
	results, errs := RunBatch(cfgs)
	if errs[0] != task.ErrEmptySet {
		t.Errorf("lane 0: got %v, want ErrEmptySet", errs[0])
	}
	if errs[1] == nil || errs[2] == nil {
		t.Errorf("lanes 1,2: want validation errors, got %v, %v", errs[1], errs[2])
	}
	if errs[3] != nil || results[3] == nil {
		t.Errorf("lane 3: valid lane failed: %v", errs[3])
	}
	for i := 0; i < 3; i++ {
		if results[i] != nil {
			t.Errorf("lane %d: result non-nil alongside error", i)
		}
	}
}

// A cancelled batch must report *Canceled (with a partial result) for
// every unfinished lane, mirroring the scalar RunContext contract.
func TestBatchRunContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already expired: no lane can make progress
	var cfgs []Config
	for i := 0; i < 3; i++ {
		p, _ := core.ByName("ccEDF")
		cfgs = append(cfgs, Config{
			Tasks:   harmonicSet(t, task.Task{Period: 10, WCET: 2}),
			Machine: machine.Machine0(), Policy: p, Horizon: 1e6,
		})
	}
	results, errs := NewBatchRunner().RunContext(ctx, cfgs)
	for i := range cfgs {
		if results[i] != nil {
			t.Errorf("lane %d: result non-nil on cancellation", i)
		}
		c, ok := errs[i].(*Canceled)
		if !ok {
			t.Fatalf("lane %d: got %T (%v), want *Canceled", i, errs[i], errs[i])
		}
		if c.Partial == nil {
			t.Errorf("lane %d: Canceled without partial result", i)
		}
	}
}

// Steady-state batches must not allocate: after the first Run has grown
// every buffer, repeated Runs of the same shape are allocation-free.
func TestBatchRunnerSteadyStateAllocs(t *testing.T) {
	const k = 8
	mk := func() []Config {
		cfgs := make([]Config, k)
		for i := range cfgs {
			p, err := core.ByName("ccEDF")
			if err != nil {
				t.Fatal(err)
			}
			cfgs[i] = Config{
				Tasks: harmonicSet(t,
					task.Task{Period: 10, WCET: 2},
					task.Task{Period: 20, WCET: 4},
					task.Task{Period: 40, WCET: 6},
				),
				Machine: machine.Machine0(),
				Policy:  p,
				Exec:    task.ConstantFraction{C: 0.6},
				Horizon: 400,
			}
		}
		return cfgs
	}
	cfgs := mk()
	br := NewBatchRunner()
	if _, errs := br.Run(cfgs); errs[0] != nil {
		t.Fatal(errs[0])
	}
	allocs := testing.AllocsPerRun(20, func() {
		results, errs := br.Run(cfgs)
		for i := range errs {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			if results[i].Events == 0 {
				t.Fatal("empty result")
			}
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state batch Run allocated %v times per run, want 0", allocs)
	}
}

// RunMulti must leave its input alone: a Horizon 0 item keeps its zero
// in the caller's slice, while the result reports the default horizon,
// 20× the longest period, exactly as RunMulti does.
func TestBatchRunMultiLeavesInputUnchanged(t *testing.T) {
	ts := harmonicSet(t, task.Task{Period: 10, WCET: 2}, task.Task{Period: 25, WCET: 5})
	cfgs := []MultiConfig{{Tasks: ts, Machine: machine.Machine0(), Policy: "ccEDF"}}
	orig := append([]MultiConfig(nil), cfgs...)
	results, errs := NewBatchRunner().RunMulti(cfgs)
	if errs[0] != nil {
		t.Fatal(errs[0])
	}
	if !reflect.DeepEqual(cfgs, orig) {
		t.Errorf("RunMulti rewrote its input: %+v, was %+v", cfgs[0], orig[0])
	}
	single, err := RunMulti(orig[0])
	if err != nil {
		t.Fatal(err)
	}
	if want := 20 * ts.MaxPeriod(); results[0].Horizon != want || single.Horizon != want {
		t.Errorf("horizon: batch %g, single %g, want %g", results[0].Horizon, single.Horizon, want)
	}
}
