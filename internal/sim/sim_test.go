package sim

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"rtdvs/internal/core"
	"rtdvs/internal/machine"
	"rtdvs/internal/sched"
	"rtdvs/internal/task"
	"rtdvs/internal/trace"
)

func mustPolicy(t *testing.T, name string) core.Policy {
	t.Helper()
	p, err := core.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestRunValidation(t *testing.T) {
	ts := task.PaperExample()
	m := machine.Machine0()
	cases := []struct {
		name string
		cfg  Config
	}{
		{"nil tasks", Config{Machine: m, Policy: mustPolicy(t, "none")}},
		{"nil machine", Config{Tasks: ts, Policy: mustPolicy(t, "none")}},
		{"nil policy", Config{Tasks: ts, Machine: m}},
		{"invalid machine", Config{Tasks: ts, Machine: &machine.Spec{}, Policy: mustPolicy(t, "none")}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := Run(c.cfg); err == nil {
				t.Error("want error")
			}
		})
	}
}

func TestDefaultHorizon(t *testing.T) {
	res, err := Run(Config{
		Tasks:   task.PaperExample(),
		Machine: machine.Machine0(),
		Policy:  mustPolicy(t, "none"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Horizon != 20*14 {
		t.Errorf("default horizon = %v, want 280 (20×longest period)", res.Horizon)
	}
}

// A horizon that is not finite is refused by the scalar and both
// multi-core engines alike: NaN used to run nothing and report success,
// and +Inf to run until cancelled. Each run gets a deadline of its own,
// so an engine that accepts +Inf fails the test instead of hanging it.
func TestNonFiniteHorizonRefused(t *testing.T) {
	ts := task.PaperExample()
	for _, h := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		runs := map[string]func(ctx context.Context) error{
			"scalar": func(ctx context.Context) error {
				_, err := NewRunner().RunContext(ctx, Config{Tasks: ts, Machine: machine.Machine0(), Policy: mustPolicy(t, "ccEDF"), Horizon: h})
				return err
			},
			"global": func(ctx context.Context) error {
				_, err := NewMultiRunner().RunContext(ctx, MultiConfig{Tasks: ts, Machine: machine.Machine0().WithCores(2),
					Policy: "gangLAEDF", Placement: sched.Global, Horizon: h})
				return err
			},
			"partitioned": func(ctx context.Context) error {
				_, err := NewMultiRunner().RunContext(ctx, MultiConfig{Tasks: ts, Machine: machine.Machine0().WithCores(2),
					Policy: "ccEDF", Placement: sched.PartitionedFF, Horizon: h})
				return err
			},
		}
		for name, run := range runs {
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			err := run(ctx)
			cancel()
			if err == nil || !strings.Contains(err.Error(), "horizon "+fmt.Sprint(h)+" is not finite") {
				t.Errorf("%s, horizon %g: error %v, want the horizon refused", name, h, err)
			}
		}
	}
}

// Hand-computable single-task case: C=2, P=10 at full speed (V=5).
// Over 100 ms: 10 invocations × 2 cycles × 25 = 500 exec energy.
func TestEnergyArithmeticSingleTask(t *testing.T) {
	ts := task.MustSet(task.Task{Period: 10, WCET: 2})
	res, err := Run(Config{
		Tasks:   ts,
		Machine: machine.Machine0(),
		Policy:  mustPolicy(t, "none"),
		Horizon: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.ExecEnergy-500) > 1e-6 {
		t.Errorf("ExecEnergy = %v, want 500", res.ExecEnergy)
	}
	if res.IdleEnergy != 0 {
		t.Errorf("IdleEnergy = %v, want 0 (perfect halt)", res.IdleEnergy)
	}
	if math.Abs(res.CyclesDone-20) > 1e-9 {
		t.Errorf("CyclesDone = %v, want 20", res.CyclesDone)
	}
	if res.Releases != 10 || res.Completions != 10 {
		t.Errorf("releases/completions = %d/%d, want 10/10", res.Releases, res.Completions)
	}
	if res.MissCount() != 0 {
		t.Errorf("misses = %d", res.MissCount())
	}
	if math.Abs(res.BusyTime-20) > 1e-9 || math.Abs(res.IdleTime-80) > 1e-9 {
		t.Errorf("busy/idle = %v/%v, want 20/80", res.BusyTime, res.IdleTime)
	}
}

// The same workload with an imperfect halt: idle energy accrues at the
// policy's idle point. Plain EDF idles at the max point (f=1, V=5):
// 80 ms × 0.5 × 25 = 1000.
func TestIdleLevelAccounting(t *testing.T) {
	ts := task.MustSet(task.Task{Period: 10, WCET: 2})
	res, err := Run(Config{
		Tasks:   ts,
		Machine: machine.Machine0().WithIdleLevel(0.5),
		Policy:  mustPolicy(t, "none"),
		Horizon: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.IdleEnergy-1000) > 1e-6 {
		t.Errorf("IdleEnergy = %v, want 1000", res.IdleEnergy)
	}
	if math.Abs(res.TotalEnergy-1500) > 1e-6 {
		t.Errorf("TotalEnergy = %v, want 1500", res.TotalEnergy)
	}

	// A dynamic policy drops to the minimum point while idle: the task
	// runs at 0.5 (U=0.2): exec 20 cycles × 9; idle 60 ms × 0.5 × 4.5.
	res2, err := Run(Config{
		Tasks:   ts,
		Machine: machine.Machine0().WithIdleLevel(0.5),
		Policy:  mustPolicy(t, "ccEDF"),
		Horizon: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	wantExec := 20.0 * 9
	wantIdle := 60.0 * 0.5 * 4.5
	if math.Abs(res2.ExecEnergy-wantExec) > 1e-6 {
		t.Errorf("ccEDF ExecEnergy = %v, want %v", res2.ExecEnergy, wantExec)
	}
	if math.Abs(res2.IdleEnergy-wantIdle) > 1e-6 {
		t.Errorf("ccEDF IdleEnergy = %v, want %v", res2.IdleEnergy, wantIdle)
	}
}

// Figure 2's illustration: forcing the RM schedule to 0.75 makes T3 miss
// its deadline at 14 ms. A fixed-frequency policy reproduces the panel.
type fixedPolicy struct {
	op   machine.OperatingPoint
	kind sched.Kind
	m    *machine.Spec
}

func (p *fixedPolicy) Name() string                           { return "fixed" }
func (p *fixedPolicy) Scheduler() sched.Kind                  { return p.kind }
func (p *fixedPolicy) Guaranteed() bool                       { return false }
func (p *fixedPolicy) OnRelease(core.System, int)             {}
func (p *fixedPolicy) OnCompletion(core.System, int, float64) {}
func (p *fixedPolicy) OnExecute(int, float64)                 {}
func (p *fixedPolicy) Point() machine.OperatingPoint          { return p.op }
func (p *fixedPolicy) IdlePoint() machine.OperatingPoint      { return p.op }
func (p *fixedPolicy) Attach(ts *task.Set, m *machine.Spec) error {
	p.m = m
	return nil
}

func TestStaticRMFailsAt075AsInFigure2(t *testing.T) {
	m := machine.Machine0()
	res, err := Run(Config{
		Tasks:   task.PaperExample(),
		Machine: m,
		Policy:  &fixedPolicy{op: m.Points[1], kind: sched.RM}, // 0.75
		Exec:    task.FullWCET{},                               // worst case, as in Figure 2
		Horizon: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MissCount() == 0 {
		t.Fatal("RM at 0.75 must miss a deadline (Figure 2)")
	}
	miss := res.Misses[0]
	if miss.Task != 2 || miss.Deadline != 14 {
		t.Errorf("first miss = task %d at %v, want T3 at 14", miss.Task, miss.Deadline)
	}

	// At full speed the same schedule meets every deadline.
	res2, err := Run(Config{
		Tasks:   task.PaperExample(),
		Machine: m,
		Policy:  &fixedPolicy{op: m.Max(), kind: sched.RM},
		Exec:    task.FullWCET{},
		Horizon: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res2.MissCount() != 0 {
		t.Errorf("RM at 1.0 missed %d deadlines", res2.MissCount())
	}
}

// EDF at 0.75 meets all deadlines in the worst case (Figure 2, top).
func TestStaticEDFWorksAt075AsInFigure2(t *testing.T) {
	m := machine.Machine0()
	res, err := Run(Config{
		Tasks:   task.PaperExample(),
		Machine: m,
		Policy:  &fixedPolicy{op: m.Points[1], kind: sched.EDF},
		Exec:    task.FullWCET{},
		Horizon: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MissCount() != 0 {
		t.Errorf("EDF at 0.75 missed %d deadlines: %+v", res.MissCount(), res.Misses)
	}
}

// Time must be conserved: busy + idle + halt = horizon.
func TestTimeConservation(t *testing.T) {
	for _, name := range core.Names() {
		res, err := Run(Config{
			Tasks:   task.PaperExample(),
			Machine: machine.Machine0(),
			Policy:  mustPolicy(t, name),
			Exec:    task.PaperExampleExec(),
			Horizon: 160,
		})
		if err != nil {
			t.Fatal(err)
		}
		sum := res.BusyTime + res.IdleTime + res.HaltTime
		if math.Abs(sum-res.Horizon) > 1e-6 {
			t.Errorf("%s: busy+idle+halt = %v, want %v", name, sum, res.Horizon)
		}
		if math.Abs(res.TotalEnergy-(res.ExecEnergy+res.IdleEnergy)) > 1e-9 {
			t.Errorf("%s: energy components do not sum", name)
		}
	}
}

// TestPreemptionCounting pins the preemption counter on a hand-checked
// two-task schedule: T1=(period 10, wcet 6), T2=(period 25, wcet 9),
// full WCET, no DVS. Under EDF, T2's first invocation runs in T1's slack
// and is displaced at t=10 and t=20 by T1's earlier deadlines.
func TestPreemptionCounting(t *testing.T) {
	ts, err := task.NewSet(task.Task{Period: 10, WCET: 6}, task.Task{Period: 25, WCET: 9})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{Tasks: ts, Machine: machine.Machine1(), Policy: mustPolicy(t, "none"), Horizon: 50})
	if err != nil {
		t.Fatal(err)
	}
	// Timeline: T1 runs [0,6), T2 [6,10) — preempted by T1 [10,16) — T2
	// [16,20) — preempted by T1 [20,26) — T2 finishes [26,27). Second T2
	// invocation at t=25 runs [27,36) inside T1's slack: no further
	// preemption before t=50 (T1 releases at 30 and 40 find T2... T2
	// deadline 50 vs T1 deadline 40: T1 wins at t=30, preempting T2).
	if res.Preemptions < 2 {
		t.Errorf("preemptions = %d, want at least the two hand-checked displacements", res.Preemptions)
	}
	if res.MissCount() != 0 {
		t.Errorf("unexpected misses: %+v", res.Misses)
	}
	if res.Events <= 0 {
		t.Error("events counter never advanced")
	}
}

// Switch overheads consume time (not energy) and can be bounded by two
// transitions per invocation.
func TestSwitchOverheadAccounting(t *testing.T) {
	oh := machine.SwitchOverhead{FreqOnly: 0.041, VoltageChange: 0.4}
	res, err := Run(Config{
		Tasks:    task.PaperExample(),
		Machine:  machine.Machine0(),
		Policy:   mustPolicy(t, "ccEDF"),
		Exec:     task.PaperExampleExec(),
		Horizon:  160,
		Overhead: &oh,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Switches == 0 {
		t.Fatal("ccEDF on this workload must switch")
	}
	if res.HaltTime <= 0 {
		t.Error("switching with overhead must consume halt time")
	}
	if res.HaltTime > float64(res.Switches)*0.4+1e-9 {
		t.Errorf("halt time %v exceeds switches × worst case", res.HaltTime)
	}
	// Energy is conserved: halted transitions consume none.
	if math.Abs(res.TotalEnergy-(res.ExecEnergy+res.IdleEnergy)) > 1e-9 {
		t.Error("halt intervals must not add energy")
	}
}

func TestNoOverheadMeansNoHaltTime(t *testing.T) {
	res, err := Run(Config{
		Tasks:   task.PaperExample(),
		Machine: machine.Machine0(),
		Policy:  mustPolicy(t, "laEDF"),
		Exec:    task.PaperExampleExec(),
		Horizon: 160,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.HaltTime != 0 {
		t.Errorf("HaltTime = %v without an overhead model", res.HaltTime)
	}
}

// At most two frequency switches per task per invocation (Section 2.6).
func TestSwitchBudgetPerInvocation(t *testing.T) {
	for _, name := range core.Names() {
		res, err := Run(Config{
			Tasks:   task.PaperExample(),
			Machine: machine.Machine0(),
			Policy:  mustPolicy(t, name),
			Exec:    task.PaperExampleExec(),
			Horizon: 560,
		})
		if err != nil {
			t.Fatal(err)
		}
		limit := 2*res.Releases + 2
		if res.Switches > limit {
			t.Errorf("%s: %d switches for %d releases (limit %d)", name, res.Switches, res.Releases, limit)
		}
	}
}

// The recorded trace must tile the horizon: contiguous, non-overlapping
// segments whose busy time matches the result.
func TestTraceConsistency(t *testing.T) {
	for _, name := range core.Names() {
		var rec trace.Recorder
		res, err := Run(Config{
			Tasks:    task.PaperExample(),
			Machine:  machine.Machine0(),
			Policy:   mustPolicy(t, name),
			Exec:     task.PaperExampleExec(),
			Horizon:  160,
			Recorder: &rec,
		})
		if err != nil {
			t.Fatal(err)
		}
		segs := rec.Segments()
		if len(segs) == 0 {
			t.Fatalf("%s: empty trace", name)
		}
		prevEnd := 0.0
		for i, s := range segs {
			if s.Start < prevEnd-1e-9 {
				t.Fatalf("%s: segment %d overlaps previous (start %v < %v)", name, i, s.Start, prevEnd)
			}
			if s.End <= s.Start {
				t.Fatalf("%s: segment %d non-positive", name, i)
			}
			if s.End > res.Horizon+1e-9 {
				t.Fatalf("%s: segment %d beyond horizon", name, i)
			}
			prevEnd = s.End
		}
		if busy := rec.BusyTime(); math.Abs(busy-res.BusyTime) > 1e-6 {
			t.Errorf("%s: trace busy %v != result busy %v", name, busy, res.BusyTime)
		}
	}
}

// Per-task stats must be internally consistent with the totals.
func TestPerTaskStats(t *testing.T) {
	res, err := Run(Config{
		Tasks:   task.PaperExample(),
		Machine: machine.Machine0(),
		Policy:  mustPolicy(t, "ccEDF"),
		Exec:    task.PaperExampleExec(),
		Horizon: 280, // one hyperperiod
	})
	if err != nil {
		t.Fatal(err)
	}
	var rel, comp int
	var cycles float64
	for i, st := range res.PerTask {
		rel += st.Releases
		comp += st.Completions
		cycles += st.Cycles
		if st.MaxResponse > task.PaperExample().Task(i).Period {
			t.Errorf("task %d response %v exceeds period", i, st.MaxResponse)
		}
	}
	if rel != res.Releases || comp != res.Completions {
		t.Errorf("per-task sums %d/%d != totals %d/%d", rel, comp, res.Releases, res.Completions)
	}
	if math.Abs(cycles-res.CyclesDone) > 1e-6 {
		t.Errorf("per-task cycles %v != total %v", cycles, res.CyclesDone)
	}
	// Expected invocations in 280 ms: 35 + 28 + 20.
	if res.Releases != 35+28+20 {
		t.Errorf("releases = %d, want 83", res.Releases)
	}
}

// A task finishing exactly at its deadline (U=1 single task at full
// speed) must not be counted as a miss — the boundary case for the
// event-time epsilon.
func TestCompletionExactlyAtDeadline(t *testing.T) {
	ts := task.MustSet(task.Task{Period: 5, WCET: 5})
	res, err := Run(Config{
		Tasks:   ts,
		Machine: machine.Machine0(),
		Policy:  mustPolicy(t, "none"),
		Horizon: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MissCount() != 0 {
		t.Errorf("exact-deadline completions recorded as %d misses", res.MissCount())
	}
	if res.Completions != 20 {
		t.Errorf("completions = %d, want 20", res.Completions)
	}
}

// Same, at a scaled frequency: 3/0.75 = 4 ms of wall time against a 4 ms
// period, repeatedly — accumulating float error must not produce misses.
func TestExactFitAtScaledFrequencyNoDrift(t *testing.T) {
	ts := task.MustSet(task.Task{Period: 4, WCET: 3})
	m := machine.Machine0()
	res, err := Run(Config{
		Tasks:   ts,
		Machine: m,
		Policy:  &fixedPolicy{op: m.Points[1], kind: sched.EDF}, // 0.75
		Horizon: 4000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MissCount() != 0 {
		t.Errorf("float drift caused %d misses", res.MissCount())
	}
	if res.Completions != 1000 {
		t.Errorf("completions = %d, want 1000", res.Completions)
	}
}

// An overloaded set must produce misses and abort overruns rather than
// hanging or double-counting.
func TestOverloadProducesMisses(t *testing.T) {
	ts := task.MustSet(
		task.Task{Period: 2, WCET: 2},
		task.Task{Period: 4, WCET: 2},
	) // U = 1.5
	res, err := Run(Config{
		Tasks:   ts,
		Machine: machine.Machine0(),
		Policy:  mustPolicy(t, "none"),
		Horizon: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Guaranteed {
		t.Error("overloaded set reported as guaranteed")
	}
	if res.MissCount() == 0 {
		t.Error("overload must miss deadlines")
	}
	// Only the EDF-lowest-priority task can miss here: T1 always wins.
	for _, m := range res.Misses {
		if m.Task != 1 {
			t.Errorf("unexpected miss on task %d", m.Task)
		}
	}
}

// Tasks released simultaneously must all be released before the policy
// callbacks fire (deadline view consistency) — exercised by equal periods.
func TestSimultaneousReleases(t *testing.T) {
	ts := task.MustSet(
		task.Task{Period: 10, WCET: 2},
		task.Task{Period: 10, WCET: 3},
		task.Task{Period: 10, WCET: 1},
	)
	res, err := Run(Config{
		Tasks:   ts,
		Machine: machine.Machine0(),
		Policy:  mustPolicy(t, "laEDF"),
		Horizon: 200,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MissCount() != 0 {
		t.Errorf("%d misses with synchronized releases", res.MissCount())
	}
	if res.Releases != 60 {
		t.Errorf("releases = %d, want 60", res.Releases)
	}
}

// Results must survive a JSON round trip (the CLI's -json output).
func TestResultJSONRoundTrip(t *testing.T) {
	res, err := Run(Config{
		Tasks:   task.PaperExample(),
		Machine: machine.Machine0(),
		Policy:  mustPolicy(t, "ccEDF"),
		Exec:    task.PaperExampleExec(),
		Horizon: 160,
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var back Result
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.TotalEnergy != res.TotalEnergy || back.Policy != res.Policy ||
		back.Switches != res.Switches || back.Releases != res.Releases {
		t.Errorf("round trip lost data: %+v vs %+v", back, res)
	}
}

// oneDemand runs every invocation at its WCET except task 0's third,
// which demands c.
type oneDemand struct{ c float64 }

func (e oneDemand) Cycles(ti, inv int, wcet float64) float64 {
	if ti == 0 && inv == 2 {
		return e.c
	}
	return wcet
}

func (e oneDemand) String() string { return "one" }

// TestNaNDemandClampsToSliver: a NaN demand is clamped like any other
// non-positive one, to a sliver, so the run equals the run whose
// invocation demanded 0, with every release fired and finite energy.
func TestNaNDemandClampsToSliver(t *testing.T) {
	for _, name := range []string{"ccEDF", "laEDF"} {
		run := func(c float64) *Result {
			res, err := Run(Config{Tasks: task.PaperExample(), Machine: machine.Machine0(),
				Policy: mustPolicy(t, name), Exec: oneDemand{c}, Horizon: 160})
			if err != nil {
				t.Fatalf("%s, demand %v: %v", name, c, err)
			}
			return res
		}
		got, want := run(math.NaN()), run(0)
		if got.Releases != 48 || math.IsNaN(got.TotalEnergy) || math.IsNaN(got.CyclesDone) {
			t.Errorf("%s: NaN demand gave %d of 48 releases, energy %v, cycles %v",
				name, got.Releases, got.TotalEnergy, got.CyclesDone)
		}
		if !reflect.DeepEqual(normalizeResult(got), normalizeResult(want)) {
			t.Errorf("%s: NaN demand run differs from the zero-demand run\nNaN:  %+v\nzero: %+v", name, got, want)
		}
	}
}
