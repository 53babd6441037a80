package sim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"rtdvs/internal/machine"
	"rtdvs/internal/task"
)

// Metamorphic properties: transformations of the input with a known,
// exact effect on the output. Unlike the ordering properties in
// property_test.go these compare two full simulations bit for bit, so
// they catch accounting drift that tolerance-based checks absorb.

// metamorphicPolicies is every registered policy, resolved once.
var metamorphicPolicies = []string{"none", "staticRM", "staticEDF", "ccRM", "ccEDF", "laEDF"}

// drawSet generates a schedulable-ish random set from a quick-provided
// seed. Sizes and utilizations are kept inside the generator's supported
// range.
func drawSet(seed int64, n int, u float64) (*task.Set, error) {
	g := task.Generator{N: n, Utilization: u, Rand: rand.New(rand.NewSource(seed))}
	return g.Generate()
}

// TestMetamorphicTimeScaling: multiplying every period, WCET, and the
// horizon by a common power of two rescales time exactly in binary
// floating point, so each run's energy scales by exactly that factor and
// the normalized energy (policy / baseline) is bit-identical. Frequency
// choices depend only on utilization ratios, which the scaling leaves
// untouched.
func TestMetamorphicTimeScaling(t *testing.T) {
	var runner Runner
	prop := func(seedRaw int64, nRaw uint8, uRaw uint16, eRaw uint8) bool {
		n := int(nRaw%7) + 2
		u := 0.1 + 0.85*float64(uRaw)/65535
		k := math.Ldexp(1, int(eRaw%7)-3) // 2^-3 .. 2^3
		ts, err := drawSet(seedRaw, n, u)
		if err != nil {
			return true // generator rejected the draw; nothing to test
		}
		scaled := make([]task.Task, ts.Len())
		for i := range scaled {
			orig := ts.Task(i)
			scaled[i] = task.Task{Name: orig.Name, Period: orig.Period * k, WCET: orig.WCET * k}
		}
		tsScaled, err := task.NewSet(scaled...)
		if err != nil {
			t.Logf("scaled set rejected: %v", err)
			return false
		}
		horizon := math.Min(8*ts.MaxPeriod(), 2000)
		for _, name := range metamorphicPolicies {
			base, err := runner.Run(Config{
				Tasks: ts, Machine: machine.Machine1(), Policy: mustCore(t, name),
				Exec: task.ConstantFraction{C: 0.75}, Horizon: horizon,
			})
			if err != nil {
				t.Logf("%s base run: %v", name, err)
				return false
			}
			baseNorm := base.TotalEnergy
			baseCycles := base.CyclesDone
			baseMisses := base.MissCount()
			res, err := runner.Run(Config{
				Tasks: tsScaled, Machine: machine.Machine1(), Policy: mustCore(t, name),
				Exec: task.ConstantFraction{C: 0.75}, Horizon: horizon * k,
			})
			if err != nil {
				t.Logf("%s scaled run: %v", name, err)
				return false
			}
			// Energy and cycles are time integrals: both scale by exactly k.
			if res.TotalEnergy != baseNorm*k || res.CyclesDone != baseCycles*k {
				t.Logf("%s: scaling by %v changed energy %v -> %v (want %v) cycles %v -> %v (want %v)",
					name, k, baseNorm, res.TotalEnergy, baseNorm*k,
					baseCycles, res.CyclesDone, baseCycles*k)
				return false
			}
			// Discrete outcomes are scale-free.
			if res.MissCount() != baseMisses || res.Releases != base.Releases ||
				res.Completions != base.Completions || res.Switches != base.Switches ||
				res.Preemptions != base.Preemptions {
				t.Logf("%s: scaling by %v changed discrete outcomes", name, k)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestMetamorphicTaskPermutation: the simulator must not care how the
// task set is ordered. Permuting the tasks yields a Result identical in
// every field once task indices are mapped back through the permutation —
// bit-identical floats, not approximately equal. Execution models whose
// draws are consumed in task order (UniformFraction) are excluded: a
// permutation legitimately reassigns their randomness.
func TestMetamorphicTaskPermutation(t *testing.T) {
	var runner Runner
	prop := func(seedRaw int64, nRaw uint8, uRaw uint16, permSeed int64) bool {
		n := int(nRaw%7) + 2
		u := 0.1 + 0.85*float64(uRaw)/65535
		ts, err := drawSet(seedRaw, n, u)
		if err != nil {
			return true
		}
		perm := rand.New(rand.NewSource(permSeed)).Perm(ts.Len())
		shuffled := make([]task.Task, ts.Len())
		for i, j := range perm {
			shuffled[j] = ts.Task(i) // original task i lands at index j
		}
		tsPerm, err := task.NewSet(shuffled...)
		if err != nil {
			t.Logf("permuted set rejected: %v", err)
			return false
		}
		horizon := math.Min(8*ts.MaxPeriod(), 2000)
		for _, name := range metamorphicPolicies {
			base, err := runner.Run(Config{
				Tasks: ts, Machine: machine.Machine2(), Policy: mustCore(t, name),
				Exec: task.ConstantFraction{C: 0.8}, Horizon: horizon,
			})
			if err != nil {
				t.Logf("%s base run: %v", name, err)
				return false
			}
			baseClone := base.Clone()
			res, err := runner.Run(Config{
				Tasks: tsPerm, Machine: machine.Machine2(), Policy: mustCore(t, name),
				Exec: task.ConstantFraction{C: 0.8}, Horizon: horizon,
			})
			if err != nil {
				t.Logf("%s permuted run: %v", name, err)
				return false
			}
			if !resultsEqualUnderPermutation(t, name, baseClone, res, perm) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// resultsEqualUnderPermutation compares two results field by field,
// mapping task indices of the base result through perm. Floats must
// match on their bit patterns.
func resultsEqualUnderPermutation(t *testing.T, name string, base, res *Result, perm []int) bool {
	t.Helper()
	bits := math.Float64bits
	scalarsOK := bits(base.TotalEnergy) == bits(res.TotalEnergy) &&
		bits(base.ExecEnergy) == bits(res.ExecEnergy) &&
		bits(base.IdleEnergy) == bits(res.IdleEnergy) &&
		bits(base.CyclesDone) == bits(res.CyclesDone) &&
		bits(base.BusyTime) == bits(res.BusyTime) &&
		bits(base.IdleTime) == bits(res.IdleTime) &&
		bits(base.HaltTime) == bits(res.HaltTime) &&
		base.Switches == res.Switches &&
		base.Releases == res.Releases &&
		base.Completions == res.Completions &&
		base.Events == res.Events &&
		base.Preemptions == res.Preemptions &&
		base.Guaranteed == res.Guaranteed
	if !scalarsOK {
		t.Logf("%s: scalar fields differ under permutation:\nbase: %+v\nperm: %+v", name, base, res)
		return false
	}
	if len(base.Misses) != len(res.Misses) {
		t.Logf("%s: miss counts differ: %d vs %d", name, len(base.Misses), len(res.Misses))
		return false
	}
	// Misses are recorded in deadline order, which the permutation
	// preserves; only the task index needs remapping.
	for i, m := range base.Misses {
		want := Miss{Task: perm[m.Task], Inv: m.Inv, Deadline: m.Deadline, Remaining: m.Remaining}
		got := res.Misses[i]
		if got.Task != want.Task || got.Inv != want.Inv ||
			bits(got.Deadline) != bits(want.Deadline) || bits(got.Remaining) != bits(want.Remaining) {
			t.Logf("%s: miss %d differs: %+v vs %+v", name, i, got, want)
			return false
		}
	}
	for i := range base.PerTask {
		b, r := base.PerTask[i], res.PerTask[perm[i]]
		if b.Releases != r.Releases || b.Completions != r.Completions || b.Misses != r.Misses ||
			bits(b.Cycles) != bits(r.Cycles) || bits(b.MaxResponse) != bits(r.MaxResponse) {
			t.Logf("%s: task %d stats differ: %+v vs %+v", name, i, b, r)
			return false
		}
	}
	return true
}
