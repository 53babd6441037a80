package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"rtdvs/internal/core"
	"rtdvs/internal/fault"
	"rtdvs/internal/machine"
	"rtdvs/internal/sched"
	"rtdvs/internal/task"
)

// TestPoliciesPinned pins the scalar results of the paper's six policies
// and of those built on the cycle-conserving reservation and the
// look-ahead walk: one SHA-256 per policy over the JSON of every run on
// the grid Machine0/1/2 × five execution models × U {0.3, 0.6, 0.9} ×
// seeds 1–10 (N = 6, 1500 ms).
// Float results may differ across architectures (fused multiply-add),
// so the digests are amd64's.
func TestPoliciesPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("policy digests are recorded for amd64, not %s", runtime.GOARCH)
	}
	machines := []*machine.Spec{machine.Machine0(), machine.Machine1(), machine.Machine2()}
	execs := []string{"wcet", "c=0.4", "uniform", "beta=2,5", "bimodal=0.2,0.9,0.3"}
	r := NewRunner()
	for _, name := range []string{
		"none", "staticEDF", "staticRM", "ccRM",
		"ccEDF", "ccEDF+contain", "laEDF", "laEDF+contain",
		"stEDF", "stSelect", "stSelect+contain",
	} {
		h := sha256.New()
		for mi, m := range machines {
			for _, spec := range execs {
				for _, u := range []float64{0.3, 0.6, 0.9} {
					for seed := int64(1); seed <= 10; seed++ {
						label := fmt.Sprintf("%s/m%d/%s/u%v/s%d", name, mi, spec, u, seed)
						g := task.Generator{N: 6, Utilization: u, Rand: rand.New(rand.NewSource(seed))}
						ts, err := g.Generate()
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						exec, err := task.ParseExec(spec, seed)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						p, err := core.ExtendedByName(name)
						if err != nil {
							t.Fatal(err)
						}
						res, err := r.Run(Config{Tasks: ts, Machine: m, Policy: p, Exec: exec, Horizon: 1500})
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						b, err := json.Marshal(res)
						if err != nil {
							t.Fatal(err)
						}
						h.Write(b)
					}
				}
			}
		}
		if got, want := hex.EncodeToString(h.Sum(nil)), policyPinDigests[name]; got != want {
			t.Errorf("%s: results digest %s, want %s", name, got, want)
		}
	}
}

// policyPinDigests are TestPoliciesPinned's recorded digests.
var policyPinDigests = map[string]string{
	"none":             "be4ed49da48846ae96ee1ca4a490df2ba5eea111b73539d00579ba67e3c5f48c",
	"staticEDF":        "5b5ccefd5ed5469659d59d49d7325d3f5ba51406097192f42ff77bffc9b85d37",
	"staticRM":         "f42323c1cf7c02d005e19354c5725fa5fc458b2d43528e79030d8ace212e70e7",
	"ccRM":             "f63b11c354b34156a29f4600cf5d74d557f2f62e94538a4964b7ecc040364161",
	"ccEDF":            "087eb88933213257836cbfb3ded855596ca6a4a90508d18f67e2c55d7bac6e86",
	"ccEDF+contain":    "7f53f967a0da666ac24b62954722d59d02000064030ccc0ed31112fbb73de8cc",
	"laEDF":            "82f11f81002c53370232cfa14bb2ddf06eb65b08ed1afba88408cf2b26632dc3",
	"laEDF+contain":    "3b36daa9277ac5fc9a5e32c499506cc08a6a73f7c34a6921954eebec661f7c06",
	"stEDF":            "ec32255a20b285adae195bfb26782ab44178d695c71e43ca0534923d06f9ede8",
	"stSelect":         "faa8d7207b94ce2739bdea40124b1e20ca87ceccf22120fa960b48622e5ce066",
	"stSelect+contain": "0fdf6a9daae5c36906413d6f3d61221602f65e0c6c9b80a498d4a7b54f0145d7",
}

// queueShape is one task-set shape of TestQueueShapesPinned.
type queueShape struct {
	name    string
	ts      *task.Set
	horizon float64
}

// quantisedSet builds an n-task set whose periods come from a few
// values and whose phases sit on a grid, so releases coincide and
// deadlines tie often; WCETs are scaled to utilization u. Scale 1 keeps
// the periods integral; scale 1.5 makes the 25 ms period 37.5.
func quantisedSet(t *testing.T, n int, u, scale float64, seed int64) *task.Set {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	periods := []int{10, 20, 25, 40, 50, 100}
	tasks := make([]task.Task, n)
	for i := range tasks {
		p := periods[rng.Intn(len(periods))]
		phase := 5 * rng.Intn(p/5)
		tasks[i] = task.Task{Period: scale * float64(p), WCET: (0.5 + rng.Float64()) * float64(p), Phase: scale * float64(phase)}
	}
	var sum float64
	for _, tk := range tasks {
		sum += tk.WCET / tk.Period
	}
	for i := range tasks {
		tasks[i].WCET *= u / sum
	}
	ts, err := task.NewSet(tasks...)
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

// frameShape builds an n-task single frame: every task shares one
// period and one phase, so every release coincides and every active job
// carries one deadline. WCETs are drawn as in quantisedSet and scaled to
// utilization u.
func frameShape(t *testing.T, n int, u, period, phase float64, seed int64) *task.Set {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tasks := make([]task.Task, n)
	var sum float64
	for i := range tasks {
		tasks[i] = task.Task{Period: period, WCET: (0.5 + rng.Float64()) * period, Phase: phase}
		sum += tasks[i].WCET / period
	}
	for i := range tasks {
		tasks[i].WCET *= u / sum
	}
	return mustSet(t, tasks...)
}

// queueShapes are the shapes the simulator's release order and run
// queue must get right: equal periods that are not one frame (releases
// coincide, deadlines tie), non-zero phases, each on a non-integral grid
// and an integral one, an overloaded set whose jobs miss and abort,
// single frames (one of them overloaded, so its jobs abort together at
// the shared deadline), and quantised sets and frames on the word edges
// of the ready set: 63 to 65 tasks, 127 to 129, 200, and frames of 64
// and 128.
func queueShapes(t *testing.T) []queueShape {
	t.Helper()
	return []queueShape{
		{"ties", mustSet(t,
			task.Task{Period: 7.5, WCET: 1.2}, task.Task{Period: 7.5, WCET: 0.9},
			task.Task{Period: 15, WCET: 2.5}, task.Task{Period: 15, WCET: 1.5},
			task.Task{Period: 7.5, WCET: 0.6}, task.Task{Period: 22.5, WCET: 2.7}), 600},
		{"ties-integral", harmonicSet(t,
			task.Task{Period: 10, WCET: 1.5}, task.Task{Period: 10, WCET: 1.2},
			task.Task{Period: 20, WCET: 3}, task.Task{Period: 20, WCET: 2},
			task.Task{Period: 10, WCET: 0.8}, task.Task{Period: 30, WCET: 3.6}), 600},
		{"phases", mustSet(t,
			task.Task{Period: 8.5, WCET: 1.7, Phase: 0.5}, task.Task{Period: 12.25, WCET: 2, Phase: 3},
			task.Task{Period: 17, WCET: 2.5}, task.Task{Period: 30.5, WCET: 4, Phase: 7.25},
			task.Task{Period: 8.5, WCET: 1, Phase: 4.25}), 600},
		{"phases-integral", harmonicSet(t,
			task.Task{Period: 10, WCET: 2, Phase: 3}, task.Task{Period: 20, WCET: 3},
			task.Task{Period: 40, WCET: 6, Phase: 7}, task.Task{Period: 20, WCET: 2, Phase: 5},
			task.Task{Period: 10, WCET: 1, Phase: 3}), 600},
		{"overload", quantisedSet(t, 12, 1.2, 1, 12), 400},
		{"frame12", frameShape(t, 12, 0.8, 20, 4, 120), 400},
		{"frame12-overload", frameShape(t, 12, 1.2, 20, 4, 120), 400},
		{"frame64", frameShape(t, 64, 0.9, 25, 0, 1264), 400},
		{"n63", quantisedSet(t, 63, 0.8, 1, 63), 400},
		{"n64", quantisedSet(t, 64, 0.8, 1, 64), 400},
		{"n64-scaled", quantisedSet(t, 64, 0.9, 1.5, 640), 600},
		{"n64-overload", quantisedSet(t, 64, 1.1, 1, 641), 400},
		{"n65", quantisedSet(t, 65, 0.8, 1, 65), 400},
		{"n65-overload", quantisedSet(t, 65, 1.1, 1.5, 651), 600},
		{"n127", quantisedSet(t, 127, 0.8, 1, 127), 400},
		{"n128", quantisedSet(t, 128, 0.9, 1.5, 128), 600},
		{"n129-overload", quantisedSet(t, 129, 1.1, 1, 129), 400},
		{"n200", quantisedSet(t, 200, 0.8, 1, 200), 400},
		{"frame128", frameShape(t, 128, 0.9, 25, 0, 1128), 400},
	}
}

// TestQueueShapesPinned pins, one SHA-256 per shape, the JSON of every
// run of the paper's six policies × {wcet, uniform} × {no injector,
// silent injector} × {no overhead, K6-2-like stop intervals} on Machine1,
// plus global runs of gangStaticEDF and gangLAEDF at m ∈ {2, 4}. A run
// that fails hashes its error instead. A silent injector's run must
// record no fault and is hashed with its empty record cleared, so the
// digests pin the engine's results, not the record's JSON fields. Every
// set runs on the release order and a ready set of one uint64 word per
// 64 tasks. The frame shapes' digests were first recorded while
// integral sets still took their releases from a per-hyperperiod table
// and single frames kept a ready set of their own, and the digests of
// the sets of more than 64 tasks while those ran on two heaps, so they
// pin the order against those results. The present digests were
// re-recorded, with the silent runs' empty record cleared, on an engine
// that still matched those.
// Float results may differ across architectures, so the digests are
// amd64's.
func TestQueueShapesPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("queue-shape digests are recorded for amd64, not %s", runtime.GOARCH)
	}
	overheads := []*machine.SwitchOverhead{nil, {FreqOnly: 0.041, VoltageChange: 0.4}}
	r := NewRunner()
	mr := NewMultiRunner()
	for _, sh := range queueShapes(t) {
		h := sha256.New()
		hash := func(v any, err error) {
			if err != nil {
				h.Write([]byte(err.Error()))
				return
			}
			b, err := json.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			h.Write(b)
		}
		for _, name := range paperPolicies {
			for _, spec := range []string{"wcet", "uniform"} {
				for _, silent := range []bool{false, true} {
					for _, ov := range overheads {
						exec, err := task.ParseExec(spec, 7)
						if err != nil {
							t.Fatal(err)
						}
						cfg := Config{Tasks: sh.ts, Machine: machine.Machine1(), Policy: mustPolicy(t, name),
							Exec: exec, Horizon: sh.horizon, Overhead: ov}
						if silent {
							cfg.Faults = fault.MustNew(fault.Plan{Seed: 99})
						}
						res, err := r.Run(cfg)
						if silent && err == nil {
							// Nothing fired, so the record is empty and
							// the run hashes as one without an injector.
							if !reflect.DeepEqual(*res.Faults, fault.Record{}) {
								t.Fatalf("%s/%s/%s: silent injector recorded %+v", sh.name, name, spec, *res.Faults)
							}
							res.Faults = nil
						}
						hash(res, err)
					}
				}
			}
		}
		for _, name := range []string{"gangStaticEDF", "gangLAEDF"} {
			for _, m := range []int{2, 4} {
				for _, spec := range []string{"wcet", "uniform"} {
					res, err := mr.Run(MultiConfig{Tasks: sh.ts, Machine: machine.Machine1().WithCores(m),
						Policy: name, Placement: sched.Global, Exec: spec, Seed: 7, Horizon: sh.horizon})
					hash(res, err)
				}
			}
		}
		if got, want := hex.EncodeToString(h.Sum(nil)), queueShapeDigests[sh.name]; got != want {
			t.Errorf("%s: results digest %s, want %s", sh.name, got, want)
		}
	}
}

// queueShapeDigests are TestQueueShapesPinned's recorded digests.
var queueShapeDigests = map[string]string{
	"ties":             "f1865879acf25cc4e92c7d9ac571486bfd831a8d64b06a2e5ecf755c23858661",
	"ties-integral":    "632214d30607c0b84623f31a66d15057a870d8420d88992fd9f6f100bb1b1578",
	"phases":           "973a9221539989d9e8de0c20836b3a2fd3cfa53f2f98ca775d318127eeeb8558",
	"phases-integral":  "b02751d3dbe5976de3c1a22f623efd74d004b5cb3e79847e8b31ca4a49915804",
	"overload":         "c71946d23d08f6b080d5a1a52dbef1427f074d6cdb84df52b03ad4f9443209f1",
	"frame12":          "0f4ff0b35a094dfb35ce17abdd68299d456ac61bd763319810fc5c11c418cb8d",
	"frame12-overload": "f56bd80125c81253988b699585f09eabf00e51e7c2e84692bc27f9657fa77eb4",
	"frame64":          "41b0b6b95fcccd35c29f6f19b5214b2a89ab9914128ad57f6723fc73fd6849b5",
	"n63":              "e580a0c39b5c66db27891d0af59ab0307556b076d3e8784ee4c943d62a67acf5",
	"n64":              "e6d9d8f343ccd10915fd9ada2a61fe1279a1969b96771ae43d59cb9449bff661",
	"n64-scaled":       "8d4e669496268e26da132f25bcc5629ae3bca186a0bfa0f9432932c79b7ec0d9",
	"n64-overload":     "aa0cdafa1ba39aa4e3d5f9344ef4cde111f9999606bac531ef0a12968615f072",
	"n65":              "e2252e003e564d09d48680e18173ab87a1bfe1513acba08106003052b6c3a219",
	"n65-overload":     "64406d20bd787437e3be0b6b4c37c140323232855e6e2de90b87b2abf80340e2",
	"n127":             "2d1f4cbb145bb6ac56e3d099bafd790f38d74b21b727cf2d78b0f90803e5f721",
	"n128":             "4f46b89d31a5590396c915ac88166899cbfacc44ff09aa203464a1ad6c02c574",
	"n129-overload":    "e22518cef8c42e80811dab6199a81fe0fd4fd4e85d7fe6f2b7b52c42bd401a6c",
	"n200":             "4b42889cb8f6406b0c4fd12cdb0914ed372714613050915bc4281d0796c22a7f",
	"frame128":         "c65e176863f1e053d052fb08dc308df1b85fe0c2018eeda034483d62e1a3dfa5",
}
