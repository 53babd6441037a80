package rtdvs

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation, plus ablations for the design choices DESIGN.md calls out.
//
// Figure benches run a reduced sweep (few task sets per point, coarse
// utilization axis) and report the headline quantity of the figure as
// custom metrics, so `go test -bench=.` regenerates the paper's results
// in miniature. cmd/rtdvs-experiments produces the full-resolution rows.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"rtdvs/internal/bound"
	"rtdvs/internal/core"
	"rtdvs/internal/experiment"
	"rtdvs/internal/machine"
	"rtdvs/internal/rtos"
	"rtdvs/internal/sched"
	"rtdvs/internal/serve"
	"rtdvs/internal/sim"
	"rtdvs/internal/task"
	"rtdvs/internal/yds"
)

// benchOptions keeps each figure bench around a hundred milliseconds per
// iteration.
func benchOptions(seed int64) experiment.Options {
	return experiment.Options{
		Sets:   4,
		Seed:   seed,
		Points: []float64{0.2, 0.4, 0.6, 0.8, 1.0},
	}
}

// reportNormalized publishes each policy's mean normalized energy across
// the sweep as a benchmark metric.
func reportNormalized(b *testing.B, sw *experiment.Sweep) {
	b.Helper()
	for _, p := range core.Names() {
		var sum float64
		for _, v := range sw.Normalized[p] {
			sum += v
		}
		b.ReportMetric(sum/float64(len(sw.Utilizations)), p+"/EDF")
	}
	var bsum float64
	for _, v := range sw.BoundNorm {
		bsum += v
	}
	b.ReportMetric(bsum/float64(len(sw.BoundNorm)), "bound/EDF")
}

// --- Table 1 ---

func BenchmarkTable1(b *testing.B) {
	b.ReportAllocs()
	var rows []rtos.Table1State
	for i := 0; i < b.N; i++ {
		rows = rtos.DefaultSystemPower().Table1()
	}
	for _, r := range rows {
		cpu := strings.ReplaceAll(strings.ReplaceAll(r.CPU, ".", ""), " ", "")
		b.ReportMetric(r.PowerW, fmt.Sprintf("W/%s-%s-%s", r.Screen, r.Disk, cpu))
	}
}

// --- Table 4 (and the Figure 2/3/5/7 worked example) ---

func BenchmarkTable4(b *testing.B) {
	b.ReportAllocs()
	var rows []experiment.Table4Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiment.Table4()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.Normalized, r.Policy)
	}
}

// --- Figure 9: energy vs utilization for 5/10/15 tasks ---

func benchFigure9(b *testing.B, n int) {
	b.ReportAllocs()
	var sw *experiment.Sweep
	for i := 0; i < b.N; i++ {
		var err error
		sw, err = experiment.Figure9(context.Background(), n, benchOptions(101))
		if err != nil {
			b.Fatal(err)
		}
	}
	reportNormalized(b, sw)
}

func BenchmarkFigure9Tasks5(b *testing.B)  { benchFigure9(b, 5) }
func BenchmarkFigure9Tasks10(b *testing.B) { benchFigure9(b, 10) }
func BenchmarkFigure9Tasks15(b *testing.B) { benchFigure9(b, 15) }

// --- Figure 10: idle level 0.01 / 0.1 / 1.0 ---

func benchFigure10(b *testing.B, level float64) {
	b.ReportAllocs()
	var sw *experiment.Sweep
	for i := 0; i < b.N; i++ {
		var err error
		sw, err = experiment.Figure10(context.Background(), level, benchOptions(102))
		if err != nil {
			b.Fatal(err)
		}
	}
	reportNormalized(b, sw)
}

func BenchmarkFigure10Idle001(b *testing.B) { benchFigure10(b, 0.01) }
func BenchmarkFigure10Idle01(b *testing.B)  { benchFigure10(b, 0.1) }
func BenchmarkFigure10Idle1(b *testing.B)   { benchFigure10(b, 1.0) }

// --- Figure 11: machines 0 / 1 / 2 ---

func benchFigure11(b *testing.B, spec *machine.Spec) {
	b.ReportAllocs()
	var sw *experiment.Sweep
	for i := 0; i < b.N; i++ {
		var err error
		sw, err = experiment.Figure11(context.Background(), spec, benchOptions(103))
		if err != nil {
			b.Fatal(err)
		}
	}
	reportNormalized(b, sw)
}

func BenchmarkFigure11Machine0(b *testing.B) { benchFigure11(b, machine.Machine0()) }
func BenchmarkFigure11Machine1(b *testing.B) { benchFigure11(b, machine.Machine1()) }
func BenchmarkFigure11Machine2(b *testing.B) { benchFigure11(b, machine.Machine2()) }

// --- Figure 12: constant fractions 0.9 / 0.7 / 0.5 ---

func benchFigure12(b *testing.B, c float64) {
	b.ReportAllocs()
	var sw *experiment.Sweep
	for i := 0; i < b.N; i++ {
		var err error
		sw, err = experiment.Figure12(context.Background(), c, benchOptions(104))
		if err != nil {
			b.Fatal(err)
		}
	}
	reportNormalized(b, sw)
}

func BenchmarkFigure12C09(b *testing.B) { benchFigure12(b, 0.9) }
func BenchmarkFigure12C07(b *testing.B) { benchFigure12(b, 0.7) }
func BenchmarkFigure12C05(b *testing.B) { benchFigure12(b, 0.5) }

// --- Figure 13: uniform computation ---

func BenchmarkFigure13Uniform(b *testing.B) {
	b.ReportAllocs()
	var sw *experiment.Sweep
	for i := 0; i < b.N; i++ {
		var err error
		sw, err = experiment.Figure13(context.Background(), benchOptions(105))
		if err != nil {
			b.Fatal(err)
		}
	}
	reportNormalized(b, sw)
}

// --- Figures 16 and 17: power on the (virtual) prototype ---

func BenchmarkFigure16ActualPlatform(b *testing.B) {
	b.ReportAllocs()
	var ps *experiment.PowerSweep
	for i := 0; i < b.N; i++ {
		var err error
		ps, err = experiment.Figure16(context.Background(), experiment.Options{Sets: 3, Seed: 106, Points: []float64{0.3, 0.6, 0.9}})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range experiment.Figure16Policies {
		var sum float64
		for _, v := range ps.Power[p] {
			sum += v
		}
		b.ReportMetric(sum/float64(len(ps.Utilizations)), p+"-W")
	}
}

func BenchmarkFigure17SimulatedPlatform(b *testing.B) {
	b.ReportAllocs()
	var ps *experiment.PowerSweep
	for i := 0; i < b.N; i++ {
		var err error
		ps, err = experiment.Figure17(context.Background(), experiment.Options{Sets: 3, Seed: 106, Points: []float64{0.3, 0.6, 0.9}})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range experiment.Figure16Policies {
		var sum float64
		for _, v := range ps.Power[p] {
			sum += v
		}
		b.ReportMetric(sum/float64(len(ps.Utilizations)), p+"-units")
	}
}

// --- Ablation: sufficient vs exact RM schedulability test ---

// The paper's static RM uses the cheap sufficient demand test. Response-
// time analysis admits lower frequencies; this bench reports the mean
// statically selected frequency under both, and times the tests.
func BenchmarkAblationRMExact(b *testing.B) {
	b.ReportAllocs()
	r := rand.New(rand.NewSource(7))
	sets := make([]*task.Set, 50)
	for i := range sets {
		g := task.Generator{N: 8, Utilization: 0.65, Rand: r}
		ts, err := g.Generate()
		if err != nil {
			b.Fatal(err)
		}
		sets[i] = ts
	}
	m := machine.Machine0()
	pick := func(ts *task.Set, test func(*task.Set, float64) bool) float64 {
		for _, op := range m.Points {
			if test(ts, op.Freq) {
				return op.Freq
			}
		}
		return 1.0
	}
	var fSuff, fExact float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fSuff, fExact = 0, 0
		for _, ts := range sets {
			fSuff += pick(ts, sched.RMTest)
			fExact += pick(ts, sched.RMExactTest)
		}
	}
	b.ReportMetric(fSuff/float64(len(sets)), "freq-sufficient")
	b.ReportMetric(fExact/float64(len(sets)), "freq-exact")
}

// --- Ablation: accounting for voltage-switch stop intervals ---

// Energy and deadline cost of modeling the K6-2+ transition halts versus
// the simulator's instantaneous-switch assumption.
func BenchmarkAblationSwitchOverhead(b *testing.B) {
	b.ReportAllocs()
	ts := task.MustSet(
		task.Task{Name: "T1", Period: 80, WCET: 30},
		task.Task{Name: "T2", Period: 100, WCET: 30},
		task.Task{Name: "T3", Period: 140, WCET: 10},
	)
	oh := machine.K62SwitchOverhead
	var ideal, real *sim.Result
	for i := 0; i < b.N; i++ {
		var err error
		p1, _ := core.ByName("ccEDF")
		ideal, err = sim.Run(sim.Config{
			Tasks: ts, Machine: machine.LaptopK62(), Policy: p1,
			Exec: task.ConstantFraction{C: 0.9}, Horizon: 8000,
		})
		if err != nil {
			b.Fatal(err)
		}
		p2, _ := core.ByName("ccEDF")
		real, err = sim.Run(sim.Config{
			Tasks: ts, Machine: machine.LaptopK62(), Policy: p2,
			Exec: task.ConstantFraction{C: 0.9}, Horizon: 8000, Overhead: &oh,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(ideal.TotalEnergy, "energy-ideal")
	b.ReportMetric(real.TotalEnergy, "energy-overhead")
	b.ReportMetric(real.HaltTime, "halt-ms")
	b.ReportMetric(float64(real.MissCount()), "misses")
}

// --- Policy runtime cost: the paper argues the hooks are O(n) and cheap ---

type benchSystem struct {
	now       float64
	deadlines []float64
}

func (s *benchSystem) Now() float64           { return s.now }
func (s *benchSystem) Deadline(i int) float64 { return s.deadlines[i] }

func benchPolicyOverhead(b *testing.B, policy string, n int) {
	b.ReportAllocs()
	r := rand.New(rand.NewSource(1))
	g := task.Generator{N: n, Utilization: 0.7, Rand: r}
	ts, err := g.Generate()
	if err != nil {
		b.Fatal(err)
	}
	p, err := core.ExtendedByName(policy)
	if err != nil {
		b.Fatal(err)
	}
	if err := p.Attach(ts, machine.Machine2()); err != nil {
		b.Fatal(err)
	}
	sys := &benchSystem{deadlines: make([]float64, n)}
	for i := 0; i < n; i++ {
		sys.deadlines[i] = ts.Task(i).Period
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ti := i % n
		p.OnRelease(sys, ti)
		p.OnExecute(ti, 0.001)
		p.OnCompletion(sys, ti, ts.Task(ti).WCET/2)
	}
}

func BenchmarkPolicyOverheadCCEDF8(b *testing.B)   { benchPolicyOverhead(b, "ccEDF", 8) }
func BenchmarkPolicyOverheadCCEDF64(b *testing.B)  { benchPolicyOverhead(b, "ccEDF", 64) }
func BenchmarkPolicyOverheadCCRM8(b *testing.B)    { benchPolicyOverhead(b, "ccRM", 8) }
func BenchmarkPolicyOverheadCCRM64(b *testing.B)   { benchPolicyOverhead(b, "ccRM", 64) }
func BenchmarkPolicyOverheadLAEDF8(b *testing.B)   { benchPolicyOverhead(b, "laEDF", 8) }
func BenchmarkPolicyOverheadLAEDF64(b *testing.B)  { benchPolicyOverhead(b, "laEDF", 64) }
func BenchmarkPolicyOverheadStatic8(b *testing.B)  { benchPolicyOverhead(b, "staticEDF", 8) }
func BenchmarkPolicyOverheadStatic64(b *testing.B) { benchPolicyOverhead(b, "staticEDF", 64) }

// The adaptive extension policies (PR 9) carry the same 0 allocs/op
// steady-state contract as the paper set; these pin the HotpathRegistry
// rows for fbEDF and stSelect.
func BenchmarkPolicyOverheadFBEDF8(b *testing.B)     { benchPolicyOverhead(b, "fbEDF", 8) }
func BenchmarkPolicyOverheadFBEDF64(b *testing.B)    { benchPolicyOverhead(b, "fbEDF", 64) }
func BenchmarkPolicyOverheadSTSelect8(b *testing.B)  { benchPolicyOverhead(b, "stSelect", 8) }
func BenchmarkPolicyOverheadSTSelect64(b *testing.B) { benchPolicyOverhead(b, "stSelect", 64) }

// The gang multiprocessor policies (PR 10) keep the same 0 allocs/op
// steady-state contract, attached to a 4-core spec so the GFB bound and
// aggregate-capacity walks run their multiprocessor paths; these pin the
// HotpathRegistry rows for gangCCEDF and gangLAEDF.
func benchGangOverhead(b *testing.B, policy string, n int) {
	b.ReportAllocs()
	r := rand.New(rand.NewSource(1))
	g := task.Generator{N: n, Utilization: 2.8, Rand: r}
	ts, err := g.Generate()
	if err != nil {
		b.Fatal(err)
	}
	p, err := core.ExtendedByName(policy)
	if err != nil {
		b.Fatal(err)
	}
	if err := p.Attach(ts, machine.Machine2().WithCores(4)); err != nil {
		b.Fatal(err)
	}
	sys := &benchSystem{deadlines: make([]float64, n)}
	for i := 0; i < n; i++ {
		sys.deadlines[i] = ts.Task(i).Period
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ti := i % n
		p.OnRelease(sys, ti)
		p.OnExecute(ti, 0.001)
		p.OnCompletion(sys, ti, ts.Task(ti).WCET/2)
	}
}

func BenchmarkPolicyOverheadGangCCEDF64(b *testing.B) { benchGangOverhead(b, "gangCCEDF", 64) }
func BenchmarkPolicyOverheadGangLAEDF64(b *testing.B) { benchGangOverhead(b, "gangLAEDF", 64) }

// --- Demand sampling ---

// BenchmarkBetaDraw measures one keyed per-invocation demand draw from a
// parsed "beta=2,5" model: the splitmix64 key, the Newton-started window
// and the inverse-CDF bisection with its incomplete-beta evaluations. It
// pins the HotpathRegistry rows
// for the Beta sampler at 0 allocs/op.
func BenchmarkBetaDraw(b *testing.B) {
	b.ReportAllocs()
	m, err := task.ParseExec("beta=2,5", 1)
	if err != nil {
		b.Fatal(err)
	}
	var sum float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum += m.Cycles(i%8, i/8, 10)
	}
	if !(sum > 0) {
		b.Fatalf("draws summed to %v", sum)
	}
}

// --- Simulator throughput ---

// BenchmarkSimulatorThroughput measures the steady-state cost of whole
// simulation runs on a reused sim.Runner + policy instance — the shape
// the experiment harness executes hundreds of thousands of times. In
// steady state this must report 0 allocs/op.
func BenchmarkSimulatorThroughput(b *testing.B) {
	b.ReportAllocs()
	r := rand.New(rand.NewSource(2))
	g := task.Generator{N: 8, Utilization: 0.7, Rand: r}
	ts, err := g.Generate()
	if err != nil {
		b.Fatal(err)
	}
	p, err := core.ByName("laEDF")
	if err != nil {
		b.Fatal(err)
	}
	runner := sim.NewRunner()
	cfg := sim.Config{
		Tasks: ts, Machine: machine.Machine0(), Policy: p,
		Exec: task.ConstantFraction{C: 0.7}, Horizon: 2000,
	}
	var events int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := runner.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		events = res.Releases + res.Completions
	}
	b.ReportMetric(float64(events), "events/run")
}

// BenchmarkMultiCoreThroughput measures the steady-state cost of whole
// multi-core runs on a reused sim.MultiRunner — the global-EDF gang
// engine on a 4-core platform, the multiprocessor counterpart of
// BenchmarkSimulatorThroughput. In steady state this must report
// 0 allocs/op.
func BenchmarkMultiCoreThroughput(b *testing.B) {
	b.ReportAllocs()
	r := rand.New(rand.NewSource(2))
	g := task.Generator{N: 8, Utilization: 2.0, Rand: r}
	ts, err := g.Generate()
	if err != nil {
		b.Fatal(err)
	}
	runner := sim.NewMultiRunner()
	cfg := sim.MultiConfig{
		Tasks:     ts,
		Machine:   machine.Machine0().WithCores(4),
		Policy:    "gangLAEDF",
		Placement: sched.Global,
		Horizon:   2000,
	}
	var events int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := runner.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		events = res.Releases + res.Completions
	}
	b.ReportMetric(float64(events), "events/run")
}

// --- RTOS kernel throughput ---

// newBenchKernel builds the kernel benchmarks' system: ccEDF on the K6-2+
// laptop with its switch halts, and three tasks at 90% of their WCETs.
func newBenchKernel(b *testing.B) *rtos.Kernel {
	p, _ := core.ByName("ccEDF")
	k, err := rtos.NewKernel(machine.LaptopK62(), machine.K62SwitchOverhead, p)
	if err != nil {
		b.Fatal(err)
	}
	for j, row := range [][2]float64{{80, 25}, {100, 20}, {140, 10}} {
		wcet := row[1]
		if _, err := k.AddTask(rtos.TaskConfig{
			Name: fmt.Sprintf("t%d", j), Period: row[0], WCET: wcet + 0.8,
			Work: func(int) float64 { return 0.9 * wcet },
		}, rtos.AddOptions{Immediate: true}); err != nil {
			b.Fatal(err)
		}
	}
	return k
}

func BenchmarkKernelThroughput(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := newBenchKernel(b)
		k.Step(4000)
		if math.IsNaN(k.CPU().Energy()) {
			b.Fatal("NaN energy")
		}
	}
}

// BenchmarkKernelStep measures the kernel's scheduling point alone: one
// warmed kernel stepped 1000 simulated ms per op. In steady state this
// must report 0 allocs/op; it pins the HotpathRegistry rows for
// Kernel.Step and its per-point scans.
func BenchmarkKernelStep(b *testing.B) {
	b.ReportAllocs()
	k := newBenchKernel(b)
	k.Step(4000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Step(k.Now() + 1000)
	}
	if len(k.Misses()) != 0 {
		b.Fatalf("%d misses", len(k.Misses()))
	}
}

// --- Extension benches ---

// BenchmarkExtensionStEDF sweeps the statistical reservation quantile,
// reporting the energy/miss-risk trade of the future-work policy.
func BenchmarkExtensionStEDF(b *testing.B) {
	b.ReportAllocs()
	r := rand.New(rand.NewSource(3))
	g := task.Generator{N: 6, Utilization: 0.85, Rand: r}
	ts, err := g.Generate()
	if err != nil {
		b.Fatal(err)
	}
	horizon := 10 * ts.MaxPeriod()
	type out struct {
		energy float64
		misses int
	}
	results := map[string]out{}
	for i := 0; i < b.N; i++ {
		for _, q := range []float64{0.5, 0.9, 0.99} {
			p, err := core.StatisticalEDF(q)
			if err != nil {
				b.Fatal(err)
			}
			res, err := sim.Run(sim.Config{
				Tasks: ts, Machine: machine.Machine2(), Policy: p,
				Exec:    task.UniformFraction{Lo: 0, Hi: 1, Rand: rand.New(rand.NewSource(5))},
				Horizon: horizon,
			})
			if err != nil {
				b.Fatal(err)
			}
			results[fmt.Sprintf("q%02.0f", q*100)] = out{res.TotalEnergy, res.MissCount()}
		}
		cc, _ := core.ByName("ccEDF")
		res, err := sim.Run(sim.Config{
			Tasks: ts, Machine: machine.Machine2(), Policy: cc,
			Exec:    task.UniformFraction{Lo: 0, Hi: 1, Rand: rand.New(rand.NewSource(5))},
			Horizon: horizon,
		})
		if err != nil {
			b.Fatal(err)
		}
		results["ccEDF"] = out{res.TotalEnergy, 0}
	}
	base := results["ccEDF"].energy
	for name, o := range results {
		b.ReportMetric(o.energy/base, name+"-energy")
		b.ReportMetric(float64(o.misses), name+"-misses")
	}
}

// BenchmarkServers compares mean aperiodic response time of the polling
// and deferrable servers at identical reservations.
func BenchmarkServers(b *testing.B) {
	b.ReportAllocs()
	var polling, deferrable float64
	for i := 0; i < b.N; i++ {
		for _, kind := range []string{"polling", "deferrable"} {
			p, _ := core.ByName("ccEDF")
			k, err := rtos.NewKernel(machine.Machine0(), machine.SwitchOverhead{}, p)
			if err != nil {
				b.Fatal(err)
			}
			for _, row := range [][2]float64{{8, 3}, {10, 3}, {14, 1}} {
				if _, err := k.AddTask(rtos.TaskConfig{
					Name: fmt.Sprintf("t%g", row[0]), Period: row[0], WCET: row[1],
					Work: func(int) float64 { return 0.5 * row[1] },
				}, rtos.AddOptions{Immediate: true}); err != nil {
					b.Fatal(err)
				}
			}
			var sink rtos.JobSink
			if kind == "polling" {
				sink, err = rtos.NewServer(k, "srv", 50, 4)
			} else {
				sink, err = rtos.NewDeferrableServer(k, "srv", 50, 4)
			}
			if err != nil {
				b.Fatal(err)
			}
			w := rtos.AperiodicWorkload{MeanInterarrival: 150, MeanCycles: 1.5, Rand: rand.New(rand.NewSource(9))}
			arr, err := w.Generate(10000)
			if err != nil {
				b.Fatal(err)
			}
			mean, err := rtos.Replay(k, sink, arr, 11000)
			if err != nil {
				b.Fatal(err)
			}
			if kind == "polling" {
				polling = mean
			} else {
				deferrable = mean
			}
		}
	}
	b.ReportMetric(polling, "polling-ms")
	b.ReportMetric(deferrable, "deferrable-ms")
}

// BenchmarkGovernorBaseline quantifies the Section 2.2 argument: the
// interval governor's energy and deadline misses on bursty real-time load
// versus laEDF.
func BenchmarkGovernorBaseline(b *testing.B) {
	b.ReportAllocs()
	ts := task.MustSet(
		task.Task{Name: "sensor", Period: 5, WCET: 3},
		task.Task{Name: "stabilize", Period: 33, WCET: 6},
		task.Task{Name: "servo", Period: 20, WCET: 2},
	)
	exec := task.UniformFraction{Lo: 0.2, Hi: 1.0, Rand: rand.New(rand.NewSource(2))}
	var govE, laE float64
	var govM, laM int
	for i := 0; i < b.N; i++ {
		gov, err := core.IntervalDVS(20, 0.7)
		if err != nil {
			b.Fatal(err)
		}
		res, err := sim.Run(sim.Config{Tasks: ts, Machine: machine.Machine0(), Policy: gov,
			Exec: exec, Horizon: 5000})
		if err != nil {
			b.Fatal(err)
		}
		govE, govM = res.TotalEnergy, res.MissCount()
		la, _ := core.ByName("laEDF")
		res, err = sim.Run(sim.Config{Tasks: ts, Machine: machine.Machine0(), Policy: la,
			Exec: exec, Horizon: 5000})
		if err != nil {
			b.Fatal(err)
		}
		laE, laM = res.TotalEnergy, res.MissCount()
	}
	b.ReportMetric(govE/laE, "governor-energy-vs-laEDF")
	b.ReportMetric(float64(govM), "governor-misses")
	b.ReportMetric(float64(laM), "laEDF-misses")
}

// BenchmarkAblationClairvoyantGap positions the online policies against
// the deadline-aware clairvoyant optimum (YDS) and the paper's
// throughput-only bound on the worked example: how much of laEDF's
// remaining gap to the printed bound is closable at all?
func BenchmarkAblationClairvoyantGap(b *testing.B) {
	b.ReportAllocs()
	ts := task.PaperExample()
	exec := task.ConstantFraction{C: 0.9}
	m := machine.Machine0()
	const horizon = 280 // one hyperperiod
	var base, la, opt, thr float64
	for i := 0; i < b.N; i++ {
		none, _ := core.ByName("none")
		res, err := sim.Run(sim.Config{Tasks: ts, Machine: m, Policy: none, Exec: exec, Horizon: horizon})
		if err != nil {
			b.Fatal(err)
		}
		base = res.TotalEnergy
		lap, _ := core.ByName("laEDF")
		res, err = sim.Run(sim.Config{Tasks: ts, Machine: m, Policy: lap, Exec: exec, Horizon: horizon})
		if err != nil {
			b.Fatal(err)
		}
		la = res.TotalEnergy
		opt, err = yds.LowerBound(m, ts, exec, horizon)
		if err != nil {
			b.Fatal(err)
		}
		var work float64
		for _, j := range yds.JobsFromTaskSet(ts, exec, horizon) {
			work += j.Work
		}
		thr, err = bound.Energy(m, work, horizon)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(la/base, "laEDF")
	b.ReportMetric(opt/base, "clairvoyant")
	b.ReportMetric(thr/base, "throughput-bound")
}

// --- Batched simulation throughput ---

// batchBenchConfigs builds the K-lane benchmark workload: frame-based
// periodic task sets (n tasks sharing one period — the paper's
// per-frame workload shape), whose releases all coincide and whose
// active jobs all share one deadline, each lane with its own policy
// instance and its own load. task.Generator draws real-valued periods
// and so never produces such a set; SimulatorThroughput and the figure
// benches measure those.
func batchBenchConfigs(b *testing.B, k, n int, policy string) []sim.Config {
	b.Helper()
	cfgs := make([]sim.Config, k)
	for i := range cfgs {
		tasks := make([]task.Task, n)
		scale := 0.6 + 0.4*float64(i)/float64(k)
		for j := range tasks {
			tasks[j] = task.Task{Period: 20, WCET: 14.0 / float64(n) * scale}
		}
		ts, err := task.NewSet(tasks...)
		if err != nil {
			b.Fatal(err)
		}
		p, err := core.ByName(policy)
		if err != nil {
			b.Fatal(err)
		}
		cfgs[i] = sim.Config{
			Tasks: ts, Machine: machine.Machine0(), Policy: p,
			Exec: task.ConstantFraction{C: 0.7}, Horizon: 2000,
		}
	}
	return cfgs
}

// batchBenchPolicies are the policy variants the batch throughput
// bench runs: staticEDF isolates the engine (its hooks are empty, so
// nearly all time is event-loop machinery), while ccEDF adds the
// paper's flagship policy's per-event hooks and O(n) utilization audit.
var batchBenchPolicies = []string{"staticEDF", "ccEDF"}

// BenchmarkBatchThroughput runs K=64 frame-set simulations per
// iteration through a reused BatchRunner, one retained Runner per lane,
// at 0 allocs/op in steady state. A BatchRunner is a loop over Runners,
// so this also times the frame sets on one Runner (results are
// bit-identical either way — see sim's
// TestBatchMatchesScalarAcrossPolicies).
func BenchmarkBatchThroughput(b *testing.B) {
	const K, N = 64, 16
	for _, policy := range batchBenchPolicies {
		b.Run(policy, func(b *testing.B) {
			b.ReportAllocs()
			cfgs := batchBenchConfigs(b, K, N, policy)
			br := sim.NewBatchRunner()
			br.Run(cfgs) // size the reusable engine state before timing
			var events int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				events = 0
				results, errs := br.Run(cfgs)
				for l := 0; l < K; l++ {
					if errs[l] != nil {
						b.Fatal(errs[l])
					}
					events += results[l].Events
				}
			}
			b.ReportMetric(float64(events)/K, "events/lane")
		})
	}
}

// BenchmarkLaneHeaps measures the flattened lane-strided heap (which no
// engine uses; the system benchmark's ladder still times it):
// steady-state push/pop churn across 64 lanes, 0 allocs/op.
func BenchmarkLaneHeaps(b *testing.B) {
	b.ReportAllocs()
	const lanes, stride = 64, 8
	h := sched.NewLaneHeaps()
	h.Reset(lanes, stride)
	r := rand.New(rand.NewSource(1))
	keys := make([]float64, lanes*stride)
	for i := range keys {
		keys[i] = r.Float64()
	}
	for l := 0; l < lanes; l++ {
		for ti := 0; ti < stride; ti++ {
			if err := h.Push(l, ti, keys[l*stride+ti]); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := i % lanes
		ti := h.Pop(l)
		if err := h.Push(l, ti, keys[(i*7+ti)%len(keys)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeSimulateBatch measures the amortized serving path:
// one POST /v1/simulate:batch carrying 32 items through the full
// decode → validate → pooled runner pair → encode pipeline. Gated
// alongside BatchThroughput so the HTTP layer cannot quietly eat the
// engine's win.
func BenchmarkServeSimulateBatch(b *testing.B) {
	b.ReportAllocs()
	srv := serve.New(serve.Config{Logf: func(string, ...any) {}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	items := make([]serve.SimulateRequest, 32)
	for i := range items {
		items[i] = serve.SimulateRequest{
			Tasks: []task.Task{
				{Period: 20, WCET: 3}, {Period: 20, WCET: 4},
				{Period: 20, WCET: 5}, {Period: 20, WCET: 2},
			},
			Policy: "ccEDF", Exec: "c=0.7", Horizon: 500,
		}
	}
	body, err := json.Marshal(serve.SimulateBatchRequest{Items: items})
	if err != nil {
		b.Fatal(err)
	}
	client := ts.Client()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := client.Post(ts.URL+"/v1/simulate:batch", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
		var out serve.SimulateBatchResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		for j := range out.Items {
			if out.Items[j].Error != "" {
				b.Fatal(out.Items[j].Error)
			}
		}
	}
	b.ReportMetric(float64(len(items)), "items/req")
}

// BenchmarkReadyQueueHeap128 times one pop and one push on a 128-task
// sched.ReadyQueue, the heap the system benchmark's ladder times; no
// engine uses it.
func BenchmarkReadyQueueHeap128(b *testing.B) {
	b.ReportAllocs()
	q := sched.NewReadyQueue()
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 128; i++ {
		if err := q.Push(i, r.Float64()); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ti := q.Pop()
		if err := q.Push(ti, r.Float64()); err != nil {
			b.Fatal(err)
		}
	}
}
