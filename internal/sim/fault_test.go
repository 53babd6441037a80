package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"rtdvs/internal/core"
	"rtdvs/internal/fault"
	"rtdvs/internal/machine"
	"rtdvs/internal/task"
)

func mustRun(t *testing.T, cfg Config) *Result {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run(%s): %v", cfg.Policy.Name(), err)
	}
	return res
}

// A present-but-silent injector (zero plan: no fault class enabled) must
// leave every observable of the run bit-identical to the nil-Faults
// path: the injection hooks are pass-throughs until a fault fires.
func TestSilentInjectorBitIdentical(t *testing.T) {
	// Variable per-invocation demand keeps the point moving (switch
	// attempts included in the comparison); each run gets its own
	// same-seeded stream. ccRM is absent only because its guarantee does
	// not survive these switch overheads even fault-free.
	base := func() Config {
		return Config{
			Tasks:    task.PaperExample(),
			Machine:  machine.Machine0(),
			Exec:     task.UniformFraction{Lo: 0.2, Hi: 0.9, Rand: rand.New(rand.NewSource(17))},
			Overhead: &machine.SwitchOverhead{FreqOnly: 0.041, VoltageChange: 0.4},
		}
	}
	for _, name := range []string{"none", "staticEDF", "ccEDF", "laEDF"} {
		cfgA := base()
		cfgA.Policy = mustPolicy(t, name)
		a := mustRun(t, cfgA)

		cfgB := base()
		cfgB.Policy = mustPolicy(t, name)
		cfgB.Faults = fault.MustNew(fault.Plan{Seed: 99})
		b := mustRun(t, cfgB)

		if b.Faults == nil || b.Faults.Total() != 0 {
			t.Fatalf("%s: silent injector fired: %+v", name, b.Faults)
		}
		b.Faults = nil
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: silent injector changed the run:\nnil:    %+v\nsilent: %+v", name, a, b)
		}
	}

	// The same holds on the harmonic shapes, whose releases coincide,
	// single frames included. Switch halts longer than the spacing of
	// the release instants make several instants due in one event.
	longHalts := func(t testing.TB) Config {
		return Config{
			Tasks: harmonicSet(t,
				task.Task{Period: 10, WCET: 3},
				task.Task{Period: 10, WCET: 2, Phase: 1},
				task.Task{Period: 20, WCET: 4, Phase: 2}),
			Exec:     task.UniformFraction{Lo: 0.1, Hi: 1, Rand: rand.New(rand.NewSource(5))},
			Horizon:  400,
			Overhead: &machine.SwitchOverhead{FreqOnly: 1.1, VoltageChange: 2.2},
		}
	}
	for _, name := range paperPolicies {
		for si, mk := range append(harmonicShapes, longHalts) {
			plain, plainErr := Run(harmonicConfig(t, mk, name))
			cfg := harmonicConfig(t, mk, name)
			cfg.Faults = fault.MustNew(fault.Plan{Seed: 99})
			silent, silentErr := Run(cfg)
			if silent != nil {
				if silent.Faults == nil || silent.Faults.Total() != 0 {
					t.Fatalf("%s shape %d: silent injector fired: %+v", name, si, silent.Faults)
				}
				silent.Faults = nil
			}
			requireSameAsScalar(t, fmt.Sprintf("%s shape %d", name, si), plain, plainErr, silent, silentErr)
		}
	}
}

// The central containment claim, deterministic: a task set where plain
// ccEDF misses on every injected overrun while the contained variant
// absorbs every one of them at full speed.
func TestOverrunContainmentPreventsMisses(t *testing.T) {
	// U = 0.34 → ccEDF runs at 0.5. An overrun inflates demand to
	// 5.1 cycles, which needs relative speed 0.51 > 0.5: plain ccEDF
	// misses every deadline. Containment escalates to full speed at
	// budget exhaustion (t = 6.8 into the period) and finishes by 8.5.
	newCfg := func(policy string) Config {
		return Config{
			Tasks:   task.MustSet(task.Task{Period: 10, WCET: 3.4}),
			Machine: machine.Machine0(),
			Policy:  mustPolicy(t, policy),
			Faults:  fault.MustNew(fault.Plan{Seed: 1, OverrunProb: 1, OverrunFactor: 1.5}),
		}
	}

	plain := mustRun(t, newCfg("ccEDF")) // no invariant error: miss has fault provenance
	if plain.MissCount() == 0 {
		t.Fatal("plain ccEDF absorbed a 1.5x overrun at half speed")
	}
	if plain.Faults.Overruns != plain.Releases {
		t.Errorf("overruns fired %d of %d releases at p=1", plain.Faults.Overruns, plain.Releases)
	}

	cfg := newCfg("ccEDF+contain")
	contained := mustRun(t, cfg)
	if n := contained.MissCount(); n != 0 {
		t.Fatalf("contained ccEDF missed %d deadlines: %+v", n, contained.Misses)
	}
	cr := cfg.Policy.(core.ContainmentReporter)
	if cr.Containments() != contained.Releases {
		t.Errorf("containments = %d, want one per release (%d)",
			cr.Containments(), contained.Releases)
	}
	// Containment costs energy: full-speed segments replace half-speed
	// ones, so the contained run must burn more than a fault-free one.
	ff := newCfg("ccEDF+contain")
	ff.Faults = nil
	baseline := mustRun(t, ff)
	if contained.TotalEnergy <= baseline.TotalEnergy {
		t.Errorf("contained energy %g not above fault-free %g",
			contained.TotalEnergy, baseline.TotalEnergy)
	}
}

// The no-miss invariant's relaxation is exactly as narrow as the
// provenance: a configured injector that has not actually fired grants
// nothing, and a false guarantee still trips the checker.
func TestSilentInjectorDoesNotRelaxNoMissInvariant(t *testing.T) {
	cfg := invariantConfig(t, &falseGuaranteePolicy{})
	// OverrunFactor 1 can never produce demand beyond the declared
	// bound, so this injector stays silent forever.
	cfg.Faults = fault.MustNew(fault.Plan{Seed: 1, OverrunProb: 1, OverrunFactor: 1})
	wantViolation(t, cfg, "missed its deadline")
	if cfg.Faults.ModelViolated() {
		t.Fatal("factor-1 injector claims a model violation")
	}
}

// Task-keyed fault classes (overruns, overloads) depend only on
// (seed, task, invocation), so two different policies experience the
// identical fault history — the property robustness curves rely on for
// a fair comparison.
func TestFaultHistoryIdenticalAcrossPolicies(t *testing.T) {
	plan := fault.Plan{
		Seed: 11, OverrunProb: 0.2, OverrunFactor: 1.5,
	}
	run := func(policy string) *fault.Record {
		cfg := Config{
			Tasks:   task.PaperExample(),
			Machine: machine.Machine0(),
			Policy:  mustPolicy(t, policy),
			Faults:  fault.MustNew(plan),
		}
		return mustRun(t, cfg).Faults
	}
	a, b := run("ccEDF"), run("laEDF")
	if a.Overruns != b.Overruns {
		t.Errorf("fault counts diverge across policies: %+v vs %+v", a, b)
	}
	if !reflect.DeepEqual(a.TaskOverruns, b.TaskOverruns) {
		t.Errorf("per-task overruns diverge: %v vs %v", a.TaskOverruns, b.TaskOverruns)
	}
}

// Two runs of the same configuration and seed are identical in full —
// results, misses, fired faults.
func TestFaultedRunsDeterministic(t *testing.T) {
	run := func() *Result {
		cfg := Config{
			Tasks:   task.PaperExample(),
			Machine: machine.Machine1(),
			Policy:  mustPolicy(t, "laEDF+contain"),
			Faults:  fault.MustNew(fault.Default(42)),
		}
		return mustRun(t, cfg)
	}
	if a, b := run(), run(); !reflect.DeepEqual(a, b) {
		t.Errorf("same seed, different runs:\n%+v\n%+v", a, b)
	}
}
