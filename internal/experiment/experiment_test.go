package experiment

import (
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"rtdvs/internal/core"
	"rtdvs/internal/machine"
	"rtdvs/internal/rtos"
)

// fastOptions keeps harness tests quick: few sets, few points.
func fastOptions() Options {
	return Options{Sets: 3, Seed: 11, Points: []float64{0.3, 0.6, 0.9}}
}

// A full sweep folded from four workers must be DeepEqual to one run
// with a single worker, which runs the jobs in strict order: the worker
// pool may change only speed, never results.
func TestSweepBatchedWorkersBitIdentical(t *testing.T) {
	base := Config{
		NTasks:       3,
		Machine:      machine.Machine0(),
		Exec:         ConstantExec(0.6),
		Utilizations: []float64{0.25, 0.5, 0.75},
		Sets:         4,
		Seed:         5,
	}
	one := base
	one.Workers = 1
	many := base
	many.Workers = 4

	swOne, err := Run(one)
	if err != nil {
		t.Fatal(err)
	}
	swMany, err := Run(many)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(swOne, swMany) {
		t.Error("sweep diverges between 1 and 4 workers")
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{NTasks: 0}); err == nil {
		t.Error("NTasks=0 accepted")
	}
}

func TestSweepStructure(t *testing.T) {
	sw, err := Figure9(5, fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Utilizations) != 3 {
		t.Fatalf("%d utilization points", len(sw.Utilizations))
	}
	for _, p := range core.Names() {
		if len(sw.Energy[p]) != 3 || len(sw.Normalized[p]) != 3 {
			t.Fatalf("policy %s: missing columns", p)
		}
		for i, e := range sw.Energy[p] {
			if e <= 0 || math.IsNaN(e) {
				t.Errorf("%s[%d] energy = %v", p, i, e)
			}
		}
	}
	for i := range sw.Utilizations {
		if sw.Bound[i] <= 0 || sw.BoundNorm[i] <= 0 || sw.BoundNorm[i] > 1.001 {
			t.Errorf("bound[%d] = %v (norm %v)", i, sw.Bound[i], sw.BoundNorm[i])
		}
	}
}

// Core shape of the evaluation: at mid-range utilization every RT-DVS
// policy saves energy versus plain EDF, and laEDF is within a modest
// factor of the theoretical bound.
func TestMidUtilizationSavings(t *testing.T) {
	sw, err := Figure9(8, Options{Sets: 5, Seed: 3, Points: []float64{0.5}})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"staticEDF", "ccEDF", "ccRM", "laEDF", "staticRM"} {
		if n := sw.Normalized[p][0]; n >= 1.0 {
			t.Errorf("%s normalized = %v at U=0.5, want < 1", p, n)
		}
	}
	la, bnd := sw.Normalized["laEDF"][0], sw.BoundNorm[0]
	if la > 1.35*bnd {
		t.Errorf("laEDF (%v) not close to bound (%v) at U=0.5", la, bnd)
	}
}

// Figure 12's headline: the statically-scaled policies are unaffected by
// how much of the worst case tasks actually use, while the EDF dynamic
// policies improve as c drops.
func TestFigure12StaticInvariantDynamicImproves(t *testing.T) {
	o := Options{Sets: 4, Seed: 5, Points: []float64{0.7}}
	hi, err := Figure12(0.9, o)
	if err != nil {
		t.Fatal(err)
	}
	lo, err := Figure12(0.5, o)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"staticEDF", "staticRM"} {
		a, b := hi.Normalized[p][0], lo.Normalized[p][0]
		// End-of-horizon truncation introduces sub-percent drift; the
		// static frequency choice itself is identical.
		if math.Abs(a-b) > 0.005 {
			t.Errorf("%s normalized changed with c: %v vs %v", p, a, b)
		}
	}
	for _, p := range []string{"ccEDF", "laEDF"} {
		if lo.Normalized[p][0] >= hi.Normalized[p][0] {
			t.Errorf("%s did not improve as c dropped: c=0.5 %v vs c=0.9 %v",
				p, lo.Normalized[p][0], hi.Normalized[p][0])
		}
	}
}

// Figure 13's conclusion: uniform computation behaves like the constant
// one-half case — the average utilization is what matters for the dynamic
// mechanisms.
func TestFigure13MatchesConstantHalf(t *testing.T) {
	o := Options{Sets: 6, Seed: 8, Points: []float64{0.6}}
	uni, err := Figure13(o)
	if err != nil {
		t.Fatal(err)
	}
	half, err := Figure12(0.5, o)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"ccEDF", "laEDF"} {
		a, b := uni.Normalized[p][0], half.Normalized[p][0]
		if math.Abs(a-b) > 0.12 {
			t.Errorf("%s: uniform %v vs c=0.5 %v differ beyond tolerance", p, a, b)
		}
	}
}

// Figure 10's observation: as the idle level rises, the dynamic policies
// (which idle at the platform minimum) gain over the static ones. The
// divergence needs the static point above the platform minimum, so probe
// at U=0.6 (static frequency 0.75, idle at 0.5).
func TestFigure10DynamicGainsWithIdleLevel(t *testing.T) {
	o := Options{Sets: 4, Seed: 9, Points: []float64{0.6}}
	low, err := Figure10(0.01, o)
	if err != nil {
		t.Fatal(err)
	}
	high, err := Figure10(1.0, o)
	if err != nil {
		t.Fatal(err)
	}
	gapLow := low.Normalized["staticEDF"][0] - low.Normalized["ccEDF"][0]
	gapHigh := high.Normalized["staticEDF"][0] - high.Normalized["ccEDF"][0]
	if gapHigh <= gapLow {
		t.Errorf("ccEDF did not diverge from staticEDF as idle level rose: gap %v -> %v", gapLow, gapHigh)
	}
}

// Figure 11's observation: machine 2's many close-together settings let
// ccEDF track the bound and beat laEDF.
func TestFigure11Machine2CCEDFBeatsLAEDF(t *testing.T) {
	sw, err := Figure11(machine.Machine2(), Options{Sets: 5, Seed: 13, Points: []float64{0.5, 0.7}})
	if err != nil {
		t.Fatal(err)
	}
	var cc, la float64
	for i := range sw.Utilizations {
		cc += sw.Normalized["ccEDF"][i]
		la += sw.Normalized["laEDF"][i]
	}
	if cc > la {
		t.Errorf("on machine 2 ccEDF (%v) should not lose to laEDF (%v)", cc/2, la/2)
	}
}

func TestRenderContainsRows(t *testing.T) {
	sw, err := Figure9(5, fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	out := sw.Render("Figure 9 test", false, core.Names())
	for _, want := range []string{"Figure 9 test", "0.30", "0.90", "laEDF", "bound"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestTable4Harness(t *testing.T) {
	rows, err := Table4()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"none": 1.00, "staticRM": 1.00, "staticEDF": 0.64,
		"ccEDF": 0.52, "ccRM": 0.71, "laEDF": 0.44,
	}
	for _, r := range rows {
		if math.Abs(r.Normalized-want[r.Policy]) > 0.005 {
			t.Errorf("%s = %.3f, want %.2f", r.Policy, r.Normalized, want[r.Policy])
		}
		if r.Misses != 0 {
			t.Errorf("%s missed %d deadlines", r.Policy, r.Misses)
		}
	}
	out := RenderTable4(rows)
	if !strings.Contains(out, "laEDF") || !strings.Contains(out, "0.44") {
		t.Errorf("RenderTable4 output:\n%s", out)
	}
}

func TestTable1Harness(t *testing.T) {
	out := Table1()
	for _, want := range []string{"13.5 W", "13.0 W", "7.1 W", "27.3 W"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table1 missing %q:\n%s", want, out)
		}
	}
}

func TestExampleTrace(t *testing.T) {
	segs, chart, err := ExampleTrace("ccRM")
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) == 0 {
		t.Fatal("empty trace")
	}
	if !strings.Contains(chart, "f=1.00") || !strings.Contains(chart, "f=0.50") {
		t.Errorf("chart missing frequency rows:\n%s", chart)
	}
	if _, _, err := ExampleTrace("warp"); err == nil {
		t.Error("unknown policy accepted")
	}
}

// Figures 16 and 17 run the same workload through the RTOS kernel (system
// watts) and the simulator (CPU units). The shapes must agree: both show
// RT-DVS below the non-DVS baseline at mid utilization, and the system
// curve sits on the constant baseline overhead.
func TestFigure16And17Agree(t *testing.T) {
	o := Options{Sets: 3, Seed: 21, Points: []float64{0.4, 0.7}}
	f16, err := Figure16(o)
	if err != nil {
		t.Fatal(err)
	}
	f17, err := Figure17(o)
	if err != nil {
		t.Fatal(err)
	}
	base := rtos.DefaultSystemPower().Baseline(false, false)
	for i := range f16.Utilizations {
		for _, p := range Figure16Policies {
			w := f16.Power[p][i]
			if w < base-1e-6 {
				t.Errorf("%s[%d]: system power %v below irreducible baseline %v", p, i, w, base)
			}
		}
		// RT-DVS saves versus the baseline in both views.
		for _, p := range []string{"ccEDF", "laEDF"} {
			if f16.Power[p][i] >= f16.Power["none"][i] {
				t.Errorf("fig16 %s[%d] = %v not below none = %v", p, i, f16.Power[p][i], f16.Power["none"][i])
			}
			if f17.Power[p][i] >= f17.Power["none"][i] {
				t.Errorf("fig17 %s[%d] = %v not below none = %v", p, i, f17.Power[p][i], f17.Power["none"][i])
			}
		}
	}
	// The paper's measured 20–40% total-system savings at high utilization.
	last := len(f16.Utilizations) - 1
	saving := 1 - f16.Power["laEDF"][last]/f16.Power["none"][last]
	if saving < 0.10 || saving > 0.60 {
		t.Errorf("laEDF system-level saving = %.0f%%, want within the paper's ballpark", 100*saving)
	}
}

// Results must be bit-identical regardless of worker count: every
// (utilization, set) job is independently seeded, workers write into
// per-job slots, and the fold into the streaming means runs sequentially
// in job-submission order.
func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) *Sweep {
		sw, err := Run(Config{
			NTasks:       5,
			Sets:         4,
			Seed:         77,
			Utilizations: []float64{0.4, 0.8},
			Workers:      workers,
			Exec:         UniformExec(),
		})
		if err != nil {
			t.Fatal(err)
		}
		return sw
	}
	a := run(1)
	b := run(runtime.GOMAXPROCS(0))
	if !reflect.DeepEqual(a, b) {
		for _, p := range core.Names() {
			for i := range a.Utilizations {
				if x, y := a.Energy[p][i], b.Energy[p][i]; x != y {
					t.Errorf("Energy[%s][%d]: %v (1 worker) != %v (GOMAXPROCS workers)", p, i, x, y)
				}
				if x, y := a.Normalized[p][i], b.Normalized[p][i]; x != y {
					t.Errorf("Normalized[%s][%d]: %v != %v", p, i, x, y)
				}
			}
		}
		t.Fatalf("sweep differs across worker counts:\n%+v\nvs\n%+v", a, b)
	}
}

// The power sweeps (Figures 16/17) must also be bit-identical across
// worker counts — the simulated path additionally exercises per-worker
// Runner and policy-instance reuse.
func TestPowerSweepDeterministicAcrossWorkers(t *testing.T) {
	opts := func(workers int) Options {
		return Options{Sets: 3, Seed: 5, Points: []float64{0.4, 0.9}, Workers: workers}
	}
	f17a, err := Figure17(opts(1))
	if err != nil {
		t.Fatal(err)
	}
	f17b, err := Figure17(opts(runtime.GOMAXPROCS(0)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f17a, f17b) {
		t.Errorf("figure 17 differs across worker counts:\n%+v\nvs\n%+v", f17a, f17b)
	}
	f16a, err := Figure16(opts(1))
	if err != nil {
		t.Fatal(err)
	}
	f16b, err := Figure16(opts(runtime.GOMAXPROCS(0)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f16a, f16b) {
		t.Errorf("figure 16 differs across worker counts:\n%+v\nvs\n%+v", f16a, f16b)
	}
}
