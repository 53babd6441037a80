package sim

import (
	"math/rand"
	"reflect"
	"testing"

	"rtdvs/internal/core"
	"rtdvs/internal/machine"
	"rtdvs/internal/task"
)

// runnerTestConfigs builds a varied batch of configurations: several
// policies, machines, task-set sizes, and exec models. The exec model is
// built fresh per call from the given seed so a replay sees identical
// randomness.
func runnerTestConfigs(t *testing.T) []func() Config {
	t.Helper()
	var mk []func() Config
	for _, pname := range []string{"none", "staticEDF", "ccEDF", "ccRM", "laEDF", "laEDF+contain"} {
		pname := pname
		for ci, gen := range []struct {
			n    int
			u    float64
			spec *machine.Spec
		}{
			{3, 0.45, machine.Machine0()},
			{8, 0.7, machine.Machine1()},
			{5, 0.9, machine.Machine2()},
		} {
			gen, seed := gen, int64(100+ci)
			mk = append(mk, func() Config {
				r := rand.New(rand.NewSource(seed))
				ts, err := (&task.Generator{N: gen.n, Utilization: gen.u, Rand: r}).Generate()
				if err != nil {
					t.Fatal(err)
				}
				p, err := core.ByName(pname)
				if err != nil {
					t.Fatal(err)
				}
				return Config{
					Tasks:   ts,
					Machine: gen.spec,
					Policy:  p,
					Exec:    task.UniformFraction{Lo: 0.2, Hi: 1, Rand: rand.New(rand.NewSource(seed ^ 77))},
					Horizon: 400,
				}
			})
		}
	}
	return mk
}

// A reused Runner must produce results bit-identical to fresh one-shot
// runs, across policies, machines, and task-set shapes.
func TestRunnerReuseMatchesFreshRuns(t *testing.T) {
	configs := runnerTestConfigs(t)
	runner := NewRunner()
	// Two passes over the batch so every reuse transition (small→large
	// sets, EDF→RM, different machines) is exercised at least twice.
	for pass := 0; pass < 2; pass++ {
		for ci, mk := range configs {
			fresh, err := Run(mk())
			if err != nil {
				t.Fatalf("pass %d cfg %d: fresh run: %v", pass, ci, err)
			}
			reused, err := runner.Run(mk())
			if err != nil {
				t.Fatalf("pass %d cfg %d: reused run: %v", pass, ci, err)
			}
			if !reflect.DeepEqual(normalizeResult(fresh), normalizeResult(reused)) {
				t.Errorf("pass %d cfg %d (%s): reused Runner diverged from fresh run\nfresh:  %+v\nreused: %+v",
					pass, ci, fresh.Policy, fresh, reused)
			}
		}
	}
}

// normalizeResult maps empty-but-non-nil slices to nil so DeepEqual
// compares content, not the cosmetic nil-vs-len-0 distinction between a
// fresh result and a reused buffer truncated to zero length.
func normalizeResult(r *Result) *Result {
	c := r.Clone()
	if len(c.Misses) == 0 {
		c.Misses = nil
	}
	return c
}

// Clone must decouple a result from the Runner's buffers: re-running the
// Runner on a different configuration must leave the clone untouched.
func TestResultCloneSurvivesRunnerReuse(t *testing.T) {
	configs := runnerTestConfigs(t)
	runner := NewRunner()
	first, err := runner.Run(configs[0]())
	if err != nil {
		t.Fatal(err)
	}
	clone := first.Clone()
	want, err := Run(configs[0]())
	if err != nil {
		t.Fatal(err)
	}
	// Clobber the runner's buffers with a run of a different shape.
	if _, err := runner.Run(configs[7]()); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(normalizeResult(clone), normalizeResult(want)) {
		t.Errorf("clone mutated by Runner reuse:\nclone: %+v\nwant:  %+v", clone, want)
	}
}

// A set of more than 128 tasks holds its ready set in three words; a
// reused Runner must run it without allocating all the same.
func TestLargeSetSteadyStateAllocs(t *testing.T) {
	r := NewRunner()
	cfg := Config{
		Tasks:   quantisedSet(t, 130, 0.8, 1.5, 130),
		Machine: machine.Machine1(),
		Policy:  mustPolicy(t, "laEDF"),
		Exec:    task.ConstantFraction{C: 0.7},
		Horizon: 300,
	}
	if _, err := r.Run(cfg); err != nil {
		t.Fatal(err)
	}
	if order, _ := r.s.q.Tasks(); len(order) != 130 {
		t.Fatalf("the order holds %d tasks, want all 130", len(order))
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := r.Run(cfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state 130-task Run allocated %v times per run, want 0", allocs)
	}
}
