package rtos

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"rtdvs/internal/core"
	"rtdvs/internal/fault"
	"rtdvs/internal/machine"
	"rtdvs/internal/sched"
	"rtdvs/internal/sim"
	"rtdvs/internal/task"
)

func mustPolicy(t *testing.T, name string) core.Policy {
	t.Helper()
	p, err := core.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func newTestKernel(t *testing.T, policy string) *Kernel {
	t.Helper()
	k, err := NewKernel(machine.Machine0(), machine.SwitchOverhead{}, mustPolicy(t, policy))
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func addPaperExample(t *testing.T, k *Kernel, frac float64) {
	t.Helper()
	for _, row := range []struct {
		name         string
		period, wcet float64
	}{{"T1", 8, 3}, {"T2", 10, 3}, {"T3", 14, 1}} {
		wcet := row.wcet
		cfg := TaskConfig{Name: row.name, Period: row.period, WCET: wcet}
		if frac > 0 {
			cfg.Work = func(int) float64 { return frac * wcet }
		}
		if _, err := k.AddTask(cfg, AddOptions{Immediate: true}); err != nil {
			t.Fatal(err)
		}
	}
}

// --- SystemPower / Table 1 ---

func TestTable1Reproduces(t *testing.T) {
	rows := DefaultSystemPower().Table1()
	want := []float64{13.5, 13.0, 7.1, 27.3}
	if len(rows) != 4 {
		t.Fatalf("Table1 has %d rows", len(rows))
	}
	for i, r := range rows {
		if math.Abs(r.PowerW-want[i]) > 1e-9 {
			t.Errorf("Table 1 row %d (%s/%s/%s) = %v W, want %v", i, r.Screen, r.Disk, r.CPU, r.PowerW, want[i])
		}
	}
}

func TestCPUSubsystemShareAtMaxLoad(t *testing.T) {
	// "at maximum computational load, the processor subsystem dominates,
	// accounting for nearly 60% of the energy consumed."
	s := DefaultSystemPower()
	share := s.CPUMaxW / s.Power(true, false, 1)
	if share < 0.55 || share > 0.65 {
		t.Errorf("CPU share at max load = %.2f, want ≈0.60", share)
	}
}

func TestSystemPowerBaseline(t *testing.T) {
	s := DefaultSystemPower()
	if got := s.Baseline(false, false); math.Abs(got-7.1) > 1e-9 {
		t.Errorf("baseline = %v, want 7.1", got)
	}
	if !strings.Contains(s.String(), "board=5.0W") {
		t.Errorf("String = %q", s.String())
	}
}

// --- CPU device ---

func TestCPUDevice(t *testing.T) {
	cpu, err := NewCPU(machine.Machine0(), machine.K62SwitchOverhead)
	if err != nil {
		t.Fatal(err)
	}
	if cpu.Point() != machine.Machine0().Max() {
		t.Error("CPU should reset at the maximum point")
	}
	cycles := cpu.Execute(4) // 4 ms at f=1, V=5
	if cycles != 4 {
		t.Errorf("Execute returned %v cycles, want 4", cycles)
	}
	if cpu.Energy() != 100 {
		t.Errorf("energy = %v, want 100", cpu.Energy())
	}
	halt := cpu.SetPoint(machine.Machine0().Min()) // voltage change
	if halt != 0.4 || cpu.Point() != machine.Machine0().Min() {
		t.Errorf("voltage-change halt = %v at %v, want 0.4 at the minimum point", halt, cpu.Point())
	}
	cpu.AccountHalt(halt) // the kernel elapses the stop interval
	if cpu.Switches() != 1 || cpu.HaltTime() != 0.4 {
		t.Errorf("switches/halt = %d/%v", cpu.Switches(), cpu.HaltTime())
	}
	cpu.AccountHalt(-1) // negative spans are ignored
	if cpu.HaltTime() != 0.4 {
		t.Errorf("negative halt accounted: %v", cpu.HaltTime())
	}
	if h := cpu.SetPoint(cpu.Point()); h != 0 || cpu.Switches() != 1 {
		t.Errorf("same-point transition halt = %v, switches %d", h, cpu.Switches())
	}
	cpu.Idle(10) // perfect halt: no energy
	if cpu.Energy() != 100 || cpu.IdleTime() != 10 {
		t.Errorf("after idle: energy %v, idleTime %v", cpu.Energy(), cpu.IdleTime())
	}
}

func TestCPUInvalidSpec(t *testing.T) {
	if _, err := NewCPU(nil, machine.SwitchOverhead{}); err == nil {
		t.Error("nil spec should fail")
	}
	if _, err := NewCPU(&machine.Spec{}, machine.SwitchOverhead{}); err == nil {
		t.Error("invalid spec should fail")
	}
}

// --- PowerMeter ---

func TestPowerMeterCalibration(t *testing.T) {
	cpu, err := NewCPU(machine.LaptopK62(), machine.SwitchOverhead{})
	if err != nil {
		t.Fatal(err)
	}
	meter := NewPowerMeter(cpu, DefaultSystemPower(), true, false)
	meter.Mark(0)
	cpu.Execute(100) // continuous max-load execution for 100 ms
	// Whole-system power must equal the Table 1 max-load figure.
	if got := meter.Average(100); math.Abs(got-27.3) > 1e-9 {
		t.Errorf("max-load system power = %v W, want 27.3", got)
	}
	// And a fully idle window is the baseline.
	meter.Mark(100)
	cpu.Idle(50)
	if got := meter.Average(150); math.Abs(got-13.0) > 1e-9 {
		t.Errorf("idle system power = %v W, want 13.0", got)
	}
}

func TestPowerMeterCPUOnly(t *testing.T) {
	cpu, err := NewCPU(machine.Machine0(), machine.SwitchOverhead{})
	if err != nil {
		t.Fatal(err)
	}
	meter := NewPowerMeter(cpu, DefaultSystemPower(), false, false)
	meter.Mark(0)
	cpu.Execute(10) // 10 cycles × 25
	if got := meter.CPUOnlyAverage(10); math.Abs(got-25) > 1e-9 {
		t.Errorf("CPU-only power = %v, want 25", got)
	}
	if got := meter.CPUOnlyAverage(0); got != 0 {
		t.Errorf("zero-width window = %v", got)
	}
}

// --- Kernel vs simulator equivalence ---

// With no switch overheads, the kernel must produce the same energy and
// schedule as the reference simulator: for the worked example, and for
// generated sets at c = 0.6 under the six paper policies and the
// +contain variants, with and without injected faults.
func TestKernelMatchesSimulator(t *testing.T) {
	for _, name := range core.Names() {
		k := newTestKernel(t, name)
		exec := task.PaperExampleExec()
		for i, row := range []struct {
			name         string
			period, wcet float64
		}{{"T1", 8, 3}, {"T2", 10, 3}, {"T3", 14, 1}} {
			i := i
			wcet := row.wcet
			if _, err := k.AddTask(TaskConfig{
				Name: row.name, Period: row.period, WCET: wcet,
				Work: func(inv int) float64 { return exec.Cycles(i, inv, wcet) },
			}, AddOptions{Immediate: true}); err != nil {
				t.Fatal(err)
			}
		}
		k.Step(160)

		res, err := sim.Run(sim.Config{
			Tasks:   task.PaperExample(),
			Machine: machine.Machine0(),
			Policy:  mustPolicy(t, name),
			Exec:    task.PaperExampleExec(),
			Horizon: 160,
		})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(k.CPU().Energy()-res.TotalEnergy) > 1e-6 {
			t.Errorf("%s: kernel energy %v != simulator %v", name, k.CPU().Energy(), res.TotalEnergy)
		}
		if len(k.Misses()) != res.MissCount() {
			t.Errorf("%s: kernel misses %d != simulator %d", name, len(k.Misses()), res.MissCount())
		}
		if math.Abs(k.CPU().Cycles()-res.CyclesDone) > 1e-6 {
			t.Errorf("%s: kernel cycles %v != simulator %v", name, k.CPU().Cycles(), res.CyclesDone)
		}
	}

	// Generated sets under both disciplines check the kernel's pick
	// against the simulator's run-queue order beyond the worked example,
	// fault-free and under the fault plans the robustness grid injects.
	// Both substrates key a task's faults by its index (the kernel's task
	// id), so each pair of runs sees one fault history.
	policies := append(core.Names(), "ccEDF+contain", "ccRM+contain", "laEDF+contain")
	runs, possible := 0, 0
	for seed := int64(1); seed <= 40; seed++ {
		g := task.Generator{N: 6, Utilization: 0.3 + 0.6*float64(seed-1)/39,
			Ranges: []task.Range{{Lo: 5, Hi: 50}, {Lo: 50, Hi: 200}}, Rand: rand.New(rand.NewSource(seed))}
		ts, err := g.Generate()
		if err != nil {
			t.Fatal(err)
		}
		sustained, burst := fault.SustainedOverload(seed), fault.Burst(seed)
		plans := []struct {
			name string
			plan *fault.Plan
		}{
			{"free", nil},
			{"iid", &fault.Plan{Seed: seed, OverrunProb: 0.15, OverrunFactor: 1.5}},
			{"sustained", &sustained},
			{"burst", &burst},
		}
		for _, name := range policies {
			for _, pl := range plans {
				possible++
				k, err := NewKernel(machine.Machine1(), machine.SwitchOverhead{}, mustPolicy(t, name))
				if err != nil {
					t.Fatal(err)
				}
				cfg := sim.Config{Tasks: ts, Machine: machine.Machine1(), Policy: mustPolicy(t, name),
					Exec: task.ConstantFraction{C: 0.6}, Horizon: 2000}
				if pl.plan != nil {
					k.SetFaults(fault.MustNew(*pl.plan))
					cfg.Faults = fault.MustNew(*pl.plan)
				}
				admitted := true
				for i := 0; i < ts.Len() && admitted; i++ {
					tk := ts.Task(i)
					wcet := tk.WCET
					_, err := k.AddTask(TaskConfig{Name: tk.Name, Period: tk.Period, WCET: wcet,
						Work: func(int) float64 { return 0.6 * wcet }}, AddOptions{Immediate: true})
					admitted = err == nil
				}
				if !admitted {
					continue
				}
				runs++
				k.Step(2000)
				res, err := sim.Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				id := fmt.Sprintf("seed %d %s %s", seed, name, pl.name)
				if len(k.Misses()) != res.MissCount() {
					t.Errorf("%s: kernel misses %d != simulator %d", id, len(k.Misses()), res.MissCount())
				}
				if d := math.Abs(k.CPU().Cycles() - res.CyclesDone); d > 1e-9*res.CyclesDone {
					t.Errorf("%s: kernel cycles %v != simulator %v", id, k.CPU().Cycles(), res.CyclesDone)
				}
				if d := math.Abs(k.CPU().Energy() - res.TotalEnergy); d > 1e-9*res.TotalEnergy {
					t.Errorf("%s: kernel energy %v != simulator %v", id, k.CPU().Energy(), res.TotalEnergy)
				}
			}
		}
	}
	if runs < possible*5/6 {
		t.Errorf("only %d of %d generated runs admitted", runs, possible)
	}
}

// The pick orders ready tasks by absolute deadline under EDF and by period
// under RM, ties to the lower index, and answers -1 when nothing is
// ready. Each row is checked under both disciplines.
func TestKernelPick(t *testing.T) {
	for _, tc := range []struct {
		name      string
		periods   []float64
		deadlines []float64
		ready     []bool
		edf, rm   int
	}{
		{"EDFPicksEarliestDeadline", []float64{10, 5, 20}, []float64{12, 30, 8}, []bool{true, true, true}, 2, 1},
		{"EDFSkipsNotReady", []float64{5, 10}, []float64{1, 100}, []bool{false, true}, 1, 1},
		{"EDFNoReadyTask", []float64{10}, []float64{5}, []bool{false}, -1, -1},
		{"RMNoReadyTask", []float64{10}, []float64{0}, []bool{false}, -1, -1},
		{"TieBreaksByIndex", []float64{10, 10}, []float64{10, 10}, []bool{true, true}, 0, 0},
		{"RMPicksShortestPeriod", []float64{10, 5, 20}, []float64{1, 100, 2}, []bool{true, true, true}, 0, 1},
		// Unlike EDF, RM keeps picking the short-period task even when the
		// long-period task's deadline is imminent — the structural
		// difference Figure 2 illustrates.
		{"RMIsStaticPriority", []float64{100, 5}, []float64{5.1, 50}, []bool{true, true}, 0, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := &Kernel{}
			for i, p := range tc.periods {
				k.tasks = append(k.tasks, &ktask{cfg: TaskConfig{Period: p, WCET: 1},
					deadline: tc.deadlines[i], active: tc.ready[i]})
			}
			for _, want := range []struct {
				kind sched.Kind
				pick int
			}{{sched.EDF, tc.edf}, {sched.RM, tc.rm}} {
				k.kind = want.kind
				k.rebuild()
				if got := k.q.Peek(); got != want.pick {
					t.Errorf("%v pick = %d, want %d", want.kind, got, want.pick)
				}
			}
		})
	}
}

// The task view the rtdvs facade exports reads the registry in
// registration order: T1 (P=8) runs first at ccEDF's 0.75 point and
// completes at 4 ms while T2 is still waiting.
func TestKernelTaskView(t *testing.T) {
	k := newTestKernel(t, "ccEDF")
	addPaperExample(t, k, 0)
	if k.NumTasks() != 3 {
		t.Fatalf("NumTasks = %d, want 3", k.NumTasks())
	}
	if got, want := k.Task(1), (task.Task{Name: "T2", Period: 10, WCET: 3}); got != want {
		t.Errorf("Task(1) = %+v, want %+v", got, want)
	}
	k.Step(4.5)
	if k.Ready(0) || !k.Ready(1) {
		t.Errorf("at 4.5 ms Ready(0) = %v, Ready(1) = %v; want false, true", k.Ready(0), k.Ready(1))
	}
}

// Step must be resumable: many small steps equal one big step.
func TestKernelStepGranularityInvariant(t *testing.T) {
	big := newTestKernel(t, "ccEDF")
	addPaperExample(t, big, 0.9)
	big.Step(160)

	small := newTestKernel(t, "ccEDF")
	addPaperExample(t, small, 0.9)
	for ms := 1.0; ms <= 160; ms++ {
		small.Step(ms)
	}
	if math.Abs(big.CPU().Energy()-small.CPU().Energy()) > 1e-6 {
		t.Errorf("step granularity changed energy: %v vs %v", big.CPU().Energy(), small.CPU().Energy())
	}
	if big.CPU().Switches() != small.CPU().Switches() {
		t.Errorf("step granularity changed switches: %d vs %d", big.CPU().Switches(), small.CPU().Switches())
	}
}

// Step never moves the clock backwards: a target at or before Now, or
// NaN, leaves the kernel as it is, so the CPU's busy + idle + halt time
// stays equal to Now after every call.
func TestKernelStepNeverRewinds(t *testing.T) {
	k := newTestKernel(t, "ccEDF")
	if _, err := k.AddTask(TaskConfig{Name: "T", Period: 10, WCET: 3}, AddOptions{Immediate: true}); err != nil {
		t.Fatal(err)
	}
	want := 0.0
	for _, until := range []float64{100, 50, math.NaN(), 150} {
		k.Step(until)
		if until > want {
			want = until
		}
		cpu := k.CPU()
		if k.Now() != want {
			t.Errorf("after Step(%v): Now = %v, want %v", until, k.Now(), want)
		}
		if acc := cpu.BusyTime() + cpu.IdleTime() + cpu.HaltTime(); math.Abs(acc-want) > 1e-9 {
			t.Errorf("after Step(%v): busy+idle+halt = %v ms, want %v", until, acc, want)
		}
	}
}

// Step toward a target that is not finite leaves the kernel as it is,
// empty or not, and Replay refuses such a horizon: neither can reach its
// target. Each case runs under a wall-clock deadline, so a kernel that
// steps toward +Inf fails the test instead of hanging it.
func TestKernelStepRefusesNonFiniteTarget(t *testing.T) {
	within := func(t *testing.T, run func()) {
		t.Helper()
		done := make(chan struct{})
		go func() {
			defer close(done)
			run()
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("did not return within 5 s")
		}
	}
	for _, n := range []int{0, 1} {
		t.Run(fmt.Sprintf("tasks%d", n), func(t *testing.T) {
			k := newTestKernel(t, "ccEDF")
			if n > 0 {
				if _, err := k.AddTask(TaskConfig{Name: "T", Period: 10, WCET: 2}, AddOptions{Immediate: true}); err != nil {
					t.Fatal(err)
				}
			}
			for _, until := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
				within(t, func() { k.Step(until) })
				cpu := k.CPU()
				if k.Now() != 0 || cpu.IdleTime() != 0 || cpu.Energy() != 0 {
					t.Errorf("after Step(%v): Now %v, idle %v, energy %v; want 0, 0, 0",
						until, k.Now(), cpu.IdleTime(), cpu.Energy())
				}
			}
			k.Step(20)
			if k.Now() != 20 {
				t.Errorf("Step(20) after the refused targets reached %v", k.Now())
			}
		})
	}
	t.Run("replay", func(t *testing.T) {
		k := newTestKernel(t, "ccEDF")
		s, err := NewDeferrableServer(k, "ds", 10, 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range []float64{math.Inf(1), math.NaN()} {
			within(t, func() {
				if _, err := Replay(k, s, []Arrival{{Name: "j", Time: 1, Cycles: 1}}, h); err == nil {
					t.Errorf("Replay accepted horizon %v", h)
				}
			})
		}
	})
}

// Replay checks the whole trace before it steps the kernel: an arrival
// that is not finite, earlier than the one before it or the kernel's
// Now, or past the horizon is refused with its index and time, and the
// kernel stays where it was.
func TestReplayRefusesBadTrace(t *testing.T) {
	for _, c := range []struct {
		name     string
		start    float64 // the kernel's Now when Replay starts
		times    []float64
		fragment string
	}{
		{"NaN", 0, []float64{30, math.NaN()}, "arrival 1 at NaN is not finite"},
		{"+Inf", 0, []float64{30, math.Inf(1)}, "arrival 1 at +Inf is not finite"},
		{"out of order", 0, []float64{30, 5}, "arrival 1 at 5 is earlier than 30"},
		{"before Now", 20, []float64{10, 30}, "arrival 0 at 10 is earlier than 20"},
		{"past the horizon", 0, []float64{30, 150}, "arrival 1 at 150 is past the horizon 100"},
	} {
		t.Run(c.name, func(t *testing.T) {
			k := newTestKernel(t, "ccEDF")
			s, err := NewDeferrableServer(k, "ds", 10, 2)
			if err != nil {
				t.Fatal(err)
			}
			k.Step(c.start)
			arrivals := make([]Arrival, len(c.times))
			for i, at := range c.times {
				arrivals[i] = Arrival{Name: fmt.Sprintf("j%d", i), Time: at, Cycles: 1}
			}
			_, err = Replay(k, s, arrivals, 100)
			if err == nil || !strings.Contains(err.Error(), c.fragment) {
				t.Errorf("Replay returned %v, want an error mentioning %q", err, c.fragment)
			}
			if k.Now() != c.start || s.Pending() != 0 || len(s.Completed()) != 0 {
				t.Errorf("refused trace moved the kernel: Now %v, %d pending, %d completed; want %v, 0, 0",
					k.Now(), s.Pending(), len(s.Completed()), c.start)
			}
		})
	}
}

func TestKernelEmptyIdles(t *testing.T) {
	k := newTestKernel(t, "ccEDF")
	k.Step(100)
	if k.Now() != 100 {
		t.Errorf("Now = %v", k.Now())
	}
	if k.CPU().Energy() != 0 {
		t.Errorf("idle empty kernel consumed %v", k.CPU().Energy())
	}
}

// --- Admission control ---

func TestAdmissionControlRejectsOverload(t *testing.T) {
	k := newTestKernel(t, "ccEDF")
	if _, err := k.AddTask(TaskConfig{Name: "a", Period: 10, WCET: 6}, AddOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := k.AddTask(TaskConfig{Name: "b", Period: 10, WCET: 5}, AddOptions{}); err == nil {
		t.Error("admission must reject U=1.1")
	}
	if len(k.Tasks()) != 1 {
		t.Errorf("rejected task left registered: %d tasks", len(k.Tasks()))
	}
	k.SetAdmitAll(true)
	if _, err := k.AddTask(TaskConfig{Name: "b", Period: 10, WCET: 5}, AddOptions{}); err != nil {
		t.Errorf("admit-all still rejected: %v", err)
	}
}

func TestAdmissionUsesPolicyScheduler(t *testing.T) {
	// The paper-example set passes EDF but fails the sufficient RM test
	// when pushed: periods 4/4.1 from the sched tests.
	k := newTestKernel(t, "ccRM")
	if _, err := k.AddTask(TaskConfig{Name: "a", Period: 4, WCET: 1}, AddOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := k.AddTask(TaskConfig{Name: "b", Period: 4.1, WCET: 2.3}, AddOptions{}); err == nil {
		t.Error("RM admission must apply the RM test, which rejects this set")
	}
	// The same set is admitted under an EDF policy.
	k2 := newTestKernel(t, "ccEDF")
	if _, err := k2.AddTask(TaskConfig{Name: "a", Period: 4, WCET: 1}, AddOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := k2.AddTask(TaskConfig{Name: "b", Period: 4.1, WCET: 2.3}, AddOptions{}); err != nil {
		t.Errorf("EDF admission rejected a schedulable set: %v", err)
	}
}

func TestAddTaskValidation(t *testing.T) {
	k := newTestKernel(t, "ccEDF")
	if _, err := k.AddTask(TaskConfig{Name: "bad", Period: -1, WCET: 1}, AddOptions{}); err == nil {
		t.Error("invalid task admitted")
	}
}

// --- Dynamic task addition (Section 4.3) ---

// The Section 4.3 hazard, pinned: admitting N(12, 0.6) at t=20 with an
// immediate release brings the set to utilization exactly 1.0 with N
// phase-offset from A and B. laEDF's deferral formula charges
// earlier-deadline tasks U_i per unit of window — exact for synchronous
// releases, but an offset pattern can transiently exceed it, and one
// deadline is missed (at t=80 in this construction). Deferring N's first
// release to the in-flight deadline boundary (the paper's rule) lands it
// on a benign offset: no miss over any horizon we test.
func TestDeferredAdmissionPreventsTransientMiss(t *testing.T) {
	build := func(immediate bool) *Kernel {
		k := newTestKernel(t, "laEDF")
		if _, err := k.AddTask(TaskConfig{Name: "A", Period: 10, WCET: 5}, AddOptions{Immediate: true}); err != nil {
			t.Fatal(err)
		}
		if _, err := k.AddTask(TaskConfig{Name: "B", Period: 40, WCET: 18}, AddOptions{Immediate: true}); err != nil {
			t.Fatal(err)
		}
		k.Step(20)
		if _, err := k.AddTask(TaskConfig{Name: "N", Period: 12, WCET: 0.6}, AddOptions{Immediate: immediate}); err != nil {
			t.Fatal(err)
		}
		k.Step(200)
		return k
	}
	if n := len(build(true).Misses()); n == 0 {
		t.Error("immediate release should produce a transient miss in this construction")
	}
	if n := len(build(false).Misses()); n != 0 {
		t.Errorf("deferred release produced %d misses", n)
	}
}

// After the transient window, a deferred-release task must actually run.
func TestDeferredTaskEventuallyRuns(t *testing.T) {
	k := newTestKernel(t, "ccEDF")
	addPaperExample(t, k, 0.9)
	k.Step(5)
	id, err := k.AddTask(TaskConfig{Name: "late", Period: 50, WCET: 1}, AddOptions{})
	if err != nil {
		t.Fatal(err)
	}
	k.Step(400)
	for _, ts := range k.Tasks() {
		if ts.ID == id {
			if ts.Releases < 5 {
				t.Errorf("deferred task released only %d times in 400 ms", ts.Releases)
			}
			if ts.Misses != 0 {
				t.Errorf("deferred task missed %d deadlines", ts.Misses)
			}
			return
		}
	}
	t.Fatal("task not found")
}

func TestRemoveTask(t *testing.T) {
	k := newTestKernel(t, "ccEDF")
	addPaperExample(t, k, 0)
	k.Step(20)
	id := k.Tasks()[0].ID
	if err := k.RemoveTask(id); err != nil {
		t.Fatal(err)
	}
	if len(k.Tasks()) != 2 {
		t.Fatalf("%d tasks after removal", len(k.Tasks()))
	}
	k.Step(200)
	if n := len(k.Misses()); n != 0 {
		t.Errorf("%d misses after removal", n)
	}
	if err := k.RemoveTask(id); err == nil {
		t.Error("double removal should fail")
	}
}

// --- Policy hot swap ---

// Swapping between policies of the same scheduling discipline keeps this
// workload's deadlines: the in-flight invocations are re-declared to the
// new policy at worst case. (Formally even same-discipline swaps can
// transiently miss if the old policy deferred more work than the new
// one's frequency covers; the paper notes that "during the switch-over
// time between these policy modules, a real-time scheduler is not
// defined". TestCrossDisciplineSwapMayMiss pins down a concrete miss.)
func TestPolicyHotSwapKeepsDeadlines(t *testing.T) {
	families := map[string][]string{
		"EDF": {"staticEDF", "ccEDF", "laEDF", "none", "ccEDF", "laEDF"},
		"RM":  {"staticRM", "ccRM", "noneRM", "ccRM", "staticRM", "ccRM"},
	}
	for fam, names := range families {
		t.Run(fam, func(t *testing.T) {
			first := names[len(names)-1]
			k := newTestKernel(t, first)
			addPaperExample(t, k, 0.9)
			for i, name := range names {
				k.Step(float64(i+1) * 37) // swap mid-schedule, not at a boundary
				if err := k.SetPolicy(mustPolicy(t, name)); err != nil {
					t.Fatal(err)
				}
			}
			k.Step(1000)
			if n := len(k.Misses()); n != 0 {
				t.Errorf("%d misses across %s-family swaps: %+v", n, fam, k.Misses())
			}
		})
	}
}

// Swapping from laEDF (which legitimately defers work) to a static-RM
// module mid-schedule can transiently miss a deadline: the RM priorities
// serve the short-period tasks first while the deferred long-period work
// is already pressed against its deadline. This is the switch-over hazard
// the paper calls out in Section 4.2.
func TestCrossDisciplineSwapMayMiss(t *testing.T) {
	k := newTestKernel(t, "laEDF")
	addPaperExample(t, k, 0.9)
	for i, name := range []string{"staticEDF", "ccEDF", "laEDF", "staticRM", "ccRM", "none"} {
		k.Step(float64(i+1) * 37)
		if err := k.SetPolicy(mustPolicy(t, name)); err != nil {
			t.Fatal(err)
		}
	}
	k.Step(1000)
	if n := len(k.Misses()); n == 0 {
		t.Skip("no transient miss in this interleaving (timing-dependent hazard)")
	}
}

func TestPolicyHotSwapSavesEnergy(t *testing.T) {
	run := func(swap bool) float64 {
		k := newTestKernel(t, "none")
		addPaperExample(t, k, 0.9)
		k.Step(100)
		if swap {
			if err := k.SetPolicy(mustPolicy(t, "laEDF")); err != nil {
				t.Fatal(err)
			}
		}
		k.Step(1000)
		return k.CPU().Energy()
	}
	if withSwap, without := run(true), run(false); withSwap >= without {
		t.Errorf("swapping to laEDF did not reduce energy: %v vs %v", withSwap, without)
	}
}

func TestSetPolicyNil(t *testing.T) {
	k := newTestKernel(t, "ccEDF")
	if err := k.SetPolicy(nil); err == nil {
		t.Error("nil policy accepted")
	}
}

// --- Cold start (Section 4.3) ---

func TestColdStartOverrunRecordedOnce(t *testing.T) {
	k := newTestKernel(t, "ccEDF")
	if _, err := k.AddTask(TaskConfig{
		Name: "warm", Period: 50, WCET: 10,
		Work:           func(int) float64 { return 9 },
		ColdStartExtra: 3,
	}, AddOptions{}); err != nil {
		t.Fatal(err)
	}
	k.Step(500)
	ovr := k.Overruns()
	if len(ovr) != 1 {
		t.Fatalf("%d overruns, want exactly 1 (first invocation only)", len(ovr))
	}
	if ovr[0].Inv != 0 || math.Abs(ovr[0].Demand-12) > 1e-9 {
		t.Errorf("overrun = %+v", ovr[0])
	}
}

func TestColdStartWithinBoundIsNoOverrun(t *testing.T) {
	k := newTestKernel(t, "ccEDF")
	if _, err := k.AddTask(TaskConfig{
		Name: "mild", Period: 50, WCET: 10,
		Work:           func(int) float64 { return 5 },
		ColdStartExtra: 2, // 7 ≤ 10: within bound
	}, AddOptions{}); err != nil {
		t.Fatal(err)
	}
	k.Step(500)
	if len(k.Overruns()) != 0 {
		t.Errorf("overruns recorded for demand within WCET")
	}
}

// --- procfs-style interface ---

func TestStatusRendering(t *testing.T) {
	k := newTestKernel(t, "laEDF")
	addPaperExample(t, k, 0.9)
	k.Step(100)
	s := k.Status()
	for _, want := range []string{"policy: laEDF", "T1", "T2", "T3", "machine0", "misses: 0"} {
		if !strings.Contains(s, want) {
			t.Errorf("Status missing %q:\n%s", want, s)
		}
	}
}

func TestCommands(t *testing.T) {
	k := newTestKernel(t, "ccEDF")
	out, err := k.Command("add video 33 10")
	if err != nil || !strings.Contains(out, "video") {
		t.Fatalf("add: %q, %v", out, err)
	}
	if _, err := k.Command("policy laEDF"); err != nil {
		t.Fatal(err)
	}
	if k.Policy().Name() != "laEDF" {
		t.Errorf("policy = %s", k.Policy().Name())
	}
	k.Step(100)
	if _, err := k.Command("rm video"); err != nil {
		t.Fatal(err)
	}
	if len(k.Tasks()) != 0 {
		t.Error("rm did not remove the task")
	}
}

func TestCommandErrors(t *testing.T) {
	k := newTestKernel(t, "ccEDF")
	for _, bad := range []string{
		"", "bogus", "policy", "policy warp", "add onlyname", "add x nan 1",
		"add x 10 nan", "rm ghost", "add x 10 20", // WCET > period
	} {
		if _, err := k.Command(bad); err == nil {
			t.Errorf("command %q should fail", bad)
		}
	}
}

func TestCommandAddImmediate(t *testing.T) {
	k := newTestKernel(t, "ccEDF")
	if _, err := k.Command("add! burst 20 5"); err != nil {
		t.Fatal(err)
	}
	k.Step(20)
	if k.Tasks()[0].Releases == 0 {
		t.Error("immediate add did not release")
	}
}

// --- Periodic server ---

func TestServerServesAperiodicJobs(t *testing.T) {
	k := newTestKernel(t, "ccEDF")
	addPaperExample(t, k, 0.5)
	srv, err := NewServer(k, "srv", 20, 2)
	if err != nil {
		t.Fatal(err)
	}
	k.Step(5)
	j1, err := srv.Submit("req1", 1.5)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := srv.Submit("req2", 3.0) // needs two server periods
	if err != nil {
		t.Fatal(err)
	}
	k.Step(200)
	if !j1.Done || !j2.Done {
		t.Fatalf("jobs not served: %+v %+v", j1, j2)
	}
	if j1.ResponseTime() <= 0 || j1.ResponseTime() > 40 {
		t.Errorf("j1 response = %v, want within two server periods", j1.ResponseTime())
	}
	if j2.CompletedAt < j1.CompletedAt {
		t.Error("FIFO order violated")
	}
	if srv.Pending() != 0 || srv.Backlog() != 0 {
		t.Errorf("pending=%d backlog=%v after drain", srv.Pending(), srv.Backlog())
	}
	if len(srv.Completed()) != 2 {
		t.Errorf("completed = %d", len(srv.Completed()))
	}
	// Hard tasks keep their guarantees throughout.
	if n := len(k.Misses()); n != 0 {
		t.Errorf("%d hard-task misses with server load", n)
	}
}

func TestServerBudgetBoundsInterference(t *testing.T) {
	// Flood the server: hard deadlines must still hold because the
	// server's utilization was reserved at admission.
	k := newTestKernel(t, "laEDF")
	addPaperExample(t, k, 0.9)
	srv, err := NewServer(k, "srv", 50, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := srv.Submit("flood", 10); err != nil {
			t.Fatal(err)
		}
	}
	k.Step(2000)
	if n := len(k.Misses()); n != 0 {
		t.Errorf("server flood broke %d hard deadlines", n)
	}
	if srv.Backlog() >= 500 {
		t.Errorf("server made no progress: backlog %v", srv.Backlog())
	}
}

func TestServerValidation(t *testing.T) {
	k := newTestKernel(t, "ccEDF")
	if _, err := NewServer(k, "bad", 10, 0); err == nil {
		t.Error("zero budget accepted")
	}
	if _, err := NewServer(k, "bad", 10, 20); err == nil {
		t.Error("budget beyond period accepted")
	}
	srv, err := NewServer(k, "ok", 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Submit("empty", 0); err == nil {
		t.Error("zero-cycle job accepted")
	}
}

// --- Switch overheads in the kernel ---

func TestKernelAccountsStopIntervals(t *testing.T) {
	p := mustPolicy(t, "ccEDF")
	k, err := NewKernel(machine.LaptopK62(), machine.K62SwitchOverhead, p)
	if err != nil {
		t.Fatal(err)
	}
	// Generous periods so the 0.4 ms halts never endanger deadlines.
	for _, row := range []struct {
		name         string
		period, wcet float64
	}{{"a", 80, 30}, {"b", 100, 30}} {
		wcet := row.wcet
		if _, err := k.AddTask(TaskConfig{
			Name: row.name, Period: row.period, WCET: wcet + 0.8,
			Work: func(int) float64 { return 0.9 * wcet },
		}, AddOptions{Immediate: true}); err != nil {
			t.Fatal(err)
		}
	}
	k.Step(4000)
	if k.CPU().Switches() == 0 || k.CPU().HaltTime() == 0 {
		t.Fatalf("expected transitions with halts: %d switches, %v halt",
			k.CPU().Switches(), k.CPU().HaltTime())
	}
	if n := len(k.Misses()); n != 0 {
		t.Errorf("%d misses despite WCET inflation for switch overhead", n)
	}
}

// Regression: a voltage-switch stop interval that spans a Step boundary
// must elapse exactly once — no double-counted halt time, no backward
// clock. (Found by TestKernelRandomOperations.)
func TestHaltSpansStepBoundary(t *testing.T) {
	p := mustPolicy(t, "ccEDF")
	k, err := NewKernel(machine.LaptopK62(), machine.K62SwitchOverhead, p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.AddTask(TaskConfig{Name: "t", Period: 100, WCET: 40}, AddOptions{Immediate: true}); err != nil {
		t.Fatal(err)
	}
	// Advance in absurdly fine steps so every stop interval is split
	// across many Step calls, then compare against one coarse run.
	for now := 0.05; now <= 400; now += 0.05 {
		k.Step(now)
	}
	k.Step(400)
	fine := k.CPU().HaltTime()
	fineTotal := k.CPU().BusyTime() + k.CPU().IdleTime() + fine

	p2 := mustPolicy(t, "ccEDF")
	k2, err := NewKernel(machine.LaptopK62(), machine.K62SwitchOverhead, p2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k2.AddTask(TaskConfig{Name: "t", Period: 100, WCET: 40}, AddOptions{Immediate: true}); err != nil {
		t.Fatal(err)
	}
	k2.Step(400)
	coarse := k2.CPU().HaltTime()

	if math.Abs(fine-coarse) > 1e-6 {
		t.Errorf("halt time depends on step size: fine %v vs coarse %v", fine, coarse)
	}
	if math.Abs(fineTotal-400) > 1e-6 {
		t.Errorf("time not conserved: busy+idle+halt = %v, want 400", fineTotal)
	}
}

// TestNaNDemandClampsToSliver: a task whose Work returns NaN runs a
// sliver, as for any non-positive demand, so the kernel's energy and
// cycles equal those of the run whose invocation demanded 0.
func TestNaNDemandClampsToSliver(t *testing.T) {
	for _, name := range []string{"ccEDF", "laEDF"} {
		run := func(c float64) *Kernel {
			k := newTestKernel(t, name)
			for i, row := range []struct {
				name         string
				period, wcet float64
			}{{"T1", 8, 3}, {"T2", 10, 3}, {"T3", 14, 1}} {
				cfg := TaskConfig{Name: row.name, Period: row.period, WCET: row.wcet}
				if i == 0 {
					wcet := row.wcet
					cfg.Work = func(inv int) float64 {
						if inv == 2 {
							return c
						}
						return wcet
					}
				}
				if _, err := k.AddTask(cfg, AddOptions{Immediate: true}); err != nil {
					t.Fatal(err)
				}
			}
			k.Step(160)
			return k
		}
		got, want := run(math.NaN()), run(0)
		e, c := got.CPU().Energy(), got.CPU().Cycles()
		if math.IsNaN(e) || math.IsNaN(c) {
			t.Fatalf("%s: NaN demand gave energy %v, cycles %v", name, e, c)
		}
		if we, wc := want.CPU().Energy(), want.CPU().Cycles(); e != we || c != wc {
			t.Errorf("%s: NaN demand gave energy %v, cycles %v; zero demand %v, %v", name, e, c, we, wc)
		}
	}
}
