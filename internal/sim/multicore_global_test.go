package sim

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"rtdvs/internal/fpx"
	"rtdvs/internal/machine"
	"rtdvs/internal/sched"
	"rtdvs/internal/task"
	"rtdvs/internal/trace"
)

// gangPolicies are the three gang policies global placement accepts.
var gangPolicies = []string{"gangStaticEDF", "gangCCEDF", "gangLAEDF"}

// globalPinSets are the workload shapes of the global-placement pin: a
// seeded random set, an integral harmonic set with phases and a
// single-frame set.
func globalPinSets(t *testing.T) []struct {
	name string
	ts   *task.Set
} {
	t.Helper()
	g := task.Generator{N: 6, Utilization: 1.5, Rand: rand.New(rand.NewSource(3))}
	random, err := g.Generate()
	if err != nil {
		t.Fatal(err)
	}
	integral := harmonicSet(t,
		task.Task{Period: 10, WCET: 2, Phase: 3},
		task.Task{Period: 20, WCET: 6},
		task.Task{Period: 40, WCET: 9, Phase: 7},
		task.Task{Period: 40, WCET: 13},
		task.Task{Period: 20, WCET: 5},
	)
	frame := harmonicSet(t,
		task.Task{Period: 20, WCET: 4},
		task.Task{Period: 20, WCET: 7},
		task.Task{Period: 20, WCET: 5},
		task.Task{Period: 20, WCET: 9},
		task.Task{Period: 20, WCET: 3},
		task.Task{Period: 20, WCET: 6},
	)
	return []struct {
		name string
		ts   *task.Set
	}{{"random", random}, {"integral", integral}, {"frame", frame}}
}

// resultDigest is the SHA-256 of a global result's JSON encoding with
// Preemptions zeroed: the pin covers every other field, bit for bit.
func resultDigest(t *testing.T, res *MultiResult) string {
	t.Helper()
	c := *res
	c.Preemptions = 0
	b, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestMultiCoreGlobalPinned pins global-placement results at m > 1: the
// three gang policies × m ∈ {2,3,4} × four execution models × the three
// workload shapes, each result hashed. Float results may differ across
// architectures (fused multiply-add), so the digests are amd64's.
func TestMultiCoreGlobalPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("global-placement digests are recorded for amd64, not %s", runtime.GOARCH)
	}
	r := NewMultiRunner()
	for _, set := range globalPinSets(t) {
		for _, policy := range gangPolicies {
			for _, m := range []int{2, 3, 4} {
				for _, execSpec := range []string{"wcet", "c=0.6", "uniform", "beta=2,5"} {
					label := fmt.Sprintf("%s/%s/m%d/%s", set.name, policy, m, execSpec)
					res, err := r.Run(MultiConfig{
						Tasks:     set.ts,
						Machine:   machine.Machine1().WithCores(m),
						Policy:    policy,
						Placement: sched.Global,
						Exec:      execSpec,
						Seed:      42,
						Horizon:   400,
					})
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if got, want := resultDigest(t, res), globalPinDigests[label]; got != want {
						t.Errorf("%s: result digest %s, want %s", label, got, want)
					}
				}
			}
		}
	}
}

// TestMultiCoreGlobalFramePreemptions pins the preemption count of a
// schedule that displaces no job: four tasks (P=10, C=2.5) in one frame
// run back to back, and the last jobs of a frame complete at the instant
// the next frame is released. Those new invocations are not preemption
// victims.
func TestMultiCoreGlobalFramePreemptions(t *testing.T) {
	ts := harmonicSet(t,
		task.Task{Period: 10, WCET: 2.5},
		task.Task{Period: 10, WCET: 2.5},
		task.Task{Period: 10, WCET: 2.5},
		task.Task{Period: 10, WCET: 2.5},
	)
	for _, m := range []int{1, 2, 4} {
		res, err := RunMulti(MultiConfig{
			Tasks:     ts,
			Machine:   machine.Machine1().WithCores(m),
			Policy:    "gangStaticEDF",
			Placement: sched.Global,
			Horizon:   100,
		})
		if err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		if res.Preemptions != 0 {
			t.Errorf("m=%d: %d preemptions, want 0 (no job is ever displaced)", m, res.Preemptions)
		}
		if res.Completions == 0 {
			t.Errorf("m=%d: no job completed", m)
		}
	}
}

// TestMultiCoreSwitchOverheadConservesTime checks that a switch halt
// never moves simulated time backwards: with K6-2+ stop intervals, trace
// segments never overlap, and busy + idle + halt time adds up to the
// horizon — per scalar run, and per core of a global run.
func TestMultiCoreSwitchOverheadConservesTime(t *testing.T) {
	const horizon = 1000
	conserved := func(label string, busy, idle, halt float64) {
		t.Helper()
		if sum := busy + idle + halt; math.Abs(sum-horizon) > 1e-9*horizon {
			t.Errorf("%s: busy %g + idle %g + halt %g = %g, want horizon %d", label, busy, idle, halt, sum, horizon)
		}
	}
	for seed := int64(1); seed <= 10; seed++ {
		g := task.Generator{N: 6, Utilization: 0.7, Rand: rand.New(rand.NewSource(seed))}
		ts, err := g.Generate()
		if err != nil {
			t.Fatal(err)
		}
		for _, policy := range []string{"none", "staticEDF", "ccEDF", "laEDF", "ccRM"} {
			label := fmt.Sprintf("seed %d %s", seed, policy)
			var rec trace.Recorder
			res, err := Run(Config{
				Tasks:    ts,
				Machine:  machine.Machine1(),
				Policy:   mustPolicy(t, policy),
				Exec:     task.ConstantFraction{C: 0.6},
				Horizon:  horizon,
				Overhead: &machine.K62SwitchOverhead,
				Recorder: &rec,
			})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			conserved(label, res.BusyTime, res.IdleTime, res.HaltTime)
			prevEnd := 0.0
			for i, seg := range rec.Segments() {
				if seg.Start < prevEnd {
					t.Errorf("%s: segment %d starts at %g, inside the previous one ending at %g", label, i, seg.Start, prevEnd)
					break
				}
				prevEnd = seg.End
			}
		}
	}
	for seed := int64(1); seed <= 4; seed++ {
		g := task.Generator{N: 8, Utilization: 1.4, Rand: rand.New(rand.NewSource(seed))}
		ts, err := g.Generate()
		if err != nil {
			t.Fatal(err)
		}
		for _, policy := range gangPolicies {
			for _, m := range []int{1, 2, 4} {
				label := fmt.Sprintf("seed %d %s m=%d", seed, policy, m)
				res, err := RunMulti(MultiConfig{
					Tasks:     ts,
					Machine:   machine.Machine1().WithCores(m),
					Policy:    policy,
					Placement: sched.Global,
					Exec:      "c=0.6",
					Horizon:   horizon,
					Overhead:  &machine.K62SwitchOverhead,
				})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				for c, pc := range res.PerCore {
					conserved(fmt.Sprintf("%s core %d", label, c), pc.BusyTime, pc.IdleTime, pc.HaltTime)
				}
				m := float64(m)
				conserved(label+" total", res.BusyTime/m, res.IdleTime/m, res.HaltTime/m)
			}
		}
	}
}

// TestMultiCoreMetricsMatchResults runs one partitioned and one global
// configuration on one reused MultiRunner: each result's platform totals
// must equal the sum of its per-core stats, the partitioned result cloned
// before the reuse must equal a fresh run of the same configuration, and
// the global frame run must migrate jobs without preempting any.
func TestMultiCoreMetricsMatchResults(t *testing.T) {
	frame := harmonicSet(t,
		task.Task{Period: 10, WCET: 2.5},
		task.Task{Period: 10, WCET: 2.5},
		task.Task{Period: 10, WCET: 2.5},
		task.Task{Period: 10, WCET: 2.5},
	)
	partCfg := MultiConfig{
		Tasks:   regressionSet(t, 5),
		Machine: machine.Machine1().WithCores(2),
		Policy:  "ccEDF",
		Horizon: 500,
	}
	r := NewMultiRunner()
	part, err := r.Run(partCfg)
	if err != nil {
		t.Fatal(err)
	}
	part = part.Clone()
	global, err := r.Run(MultiConfig{
		Tasks:     frame,
		Machine:   machine.Machine1().WithCores(3),
		Policy:    "gangCCEDF",
		Placement: sched.Global,
		Exec:      "uniform",
		Seed:      9,
		Horizon:   500,
	})
	if err != nil {
		t.Fatal(err)
	}
	if global.Preemptions != 0 {
		t.Errorf("frame set reports %d preemptions, want 0", global.Preemptions)
	}
	if global.Migrations == 0 {
		t.Error("global frame run never migrated")
	}
	if part.Migrations != 0 {
		t.Errorf("partitioned run reports %d migrations, want 0", part.Migrations)
	}

	for _, run := range []struct {
		name string
		res  *MultiResult
	}{{"partitioned", part}, {"global", global}} {
		var busy, exec, idle float64
		var switches, misses int
		for _, pc := range run.res.PerCore {
			busy += pc.BusyTime
			exec += pc.ExecEnergy
			idle += pc.IdleEnergy
			switches += pc.Switches
			misses += pc.Misses
		}
		if fpx.Ne(run.res.BusyTime, busy) {
			t.Errorf("%s: busy time %v, per-core sum %v", run.name, run.res.BusyTime, busy)
		}
		if fpx.Ne(run.res.ExecEnergy, exec) {
			t.Errorf("%s: exec energy %v, per-core sum %v", run.name, run.res.ExecEnergy, exec)
		}
		if fpx.Ne(run.res.IdleEnergy, idle) {
			t.Errorf("%s: idle energy %v, per-core sum %v", run.name, run.res.IdleEnergy, idle)
		}
		if run.res.Switches != switches {
			t.Errorf("%s: %d switches, per-core sum %d", run.name, run.res.Switches, switches)
		}
		if len(run.res.Misses) != misses {
			t.Errorf("%s: %d misses, per-core sum %d", run.name, len(run.res.Misses), misses)
		}
	}

	fresh, err := RunMulti(partCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(part, fresh) {
		t.Errorf("partitioned clone changed when the runner was reused:\n got %+v\nwant %+v", part, fresh)
	}
}

// pollCountdown is a cancellable context whose Err turns to Canceled on
// its n-th call. The event loop polls once per cancelCheckInterval
// events, so every engine stops after the same number of events.
type pollCountdown struct {
	context.Context
	done chan struct{}
	n    int
}

func newPollCountdown(n int) *pollCountdown {
	return &pollCountdown{Context: context.Background(), done: make(chan struct{}), n: n}
}

func (c *pollCountdown) Done() <-chan struct{} { return c.done }

func (c *pollCountdown) Err() error {
	if c.n--; c.n <= 0 {
		return context.Canceled
	}
	return nil
}

// TestMultiCoreGlobalCancellation cancels global runs mid-horizon: the
// *MultiCanceled partial at m = 1 must equal the scalar engine's
// cancelled partial under the uniprocessor policy, and at m = 2 the run
// must stop after the same number of events.
func TestMultiCoreGlobalCancellation(t *testing.T) {
	const polls, horizon = 5, 600
	ts := regressionSet(t, 19)
	exec, err := task.ParseExec("wcet", 0)
	if err != nil {
		t.Fatal(err)
	}
	_, serr := RunContext(newPollCountdown(polls), Config{
		Tasks: ts, Machine: machine.Machine0(), Policy: mustPolicy(t, "ccEDF"), Exec: exec, Horizon: horizon,
	})
	var scanc *Canceled
	if !errors.As(serr, &scanc) {
		t.Fatalf("scalar run: %v, want Canceled", serr)
	}
	for _, m := range []int{1, 2} {
		_, gerr := RunMultiContext(newPollCountdown(polls), MultiConfig{
			Tasks:     ts,
			Machine:   machine.Machine0().WithCores(m),
			Policy:    "gangCCEDF",
			Placement: sched.Global,
			Exec:      "wcet",
			Horizon:   horizon,
		})
		var gcanc *MultiCanceled
		if !errors.As(gerr, &gcanc) {
			t.Fatalf("m=%d: %v, want MultiCanceled", m, gerr)
		}
		if got, want := gcanc.Partial.Events, (polls-1)*cancelCheckInterval; got != want {
			t.Errorf("m=%d: cancelled after %d events, want %d", m, got, want)
		}
		if !(gcanc.At > 0 && gcanc.At < horizon) {
			t.Errorf("m=%d: cancelled at t=%g, want inside (0, %d)", m, gcanc.At, horizon)
		}
		if m > 1 {
			continue
		}
		got, want := multiTotals(gcanc.Partial), scalarTotals(scanc.Partial)
		got.Policy, want.Policy = "", ""
		if gcanc.At != scanc.At || !reflect.DeepEqual(got, want) {
			t.Errorf("m=1 partial diverges from scalar: t=%g vs %g\ngot  %+v\nwant %+v", gcanc.At, scanc.At, got, want)
		}
	}
}

// globalPinDigests are TestMultiCoreGlobalPinned's recorded digests.
var globalPinDigests = map[string]string{
	"random/gangStaticEDF/m2/wcet":       "7f127616fbd88f4bf9b2edd33e972459c83caf910b0c779838c785fff2d3243b",
	"random/gangStaticEDF/m2/c=0.6":      "adaf478b4ab7a992c35b39ab90641690928f1e8e8841681ecf3a8498ec189359",
	"random/gangStaticEDF/m2/uniform":    "ec154fc261d28c788eab874d40957a76f94814204ae29916b6261553ab87b88a",
	"random/gangStaticEDF/m2/beta=2,5":   "11f01c7ee1f3790ecac57d4d1bcbf81b4aa4d76681dab4a0a9f6e8f11299314d",
	"random/gangStaticEDF/m3/wcet":       "95c67445a0b1e7e2dc174fb2e8fc262a6027aad2c9ad4d7172176d5b7ebf0ef1",
	"random/gangStaticEDF/m3/c=0.6":      "c191684e3878c7632c38df6303e63d0d5c7289a6367e1a83683ca3c3180dfaff",
	"random/gangStaticEDF/m3/uniform":    "93308ffb827209be554efbf8029b146aa59ff64210a27556ad8027a45a6db3dd",
	"random/gangStaticEDF/m3/beta=2,5":   "2de50390e41f0e1aa28fac81c3167a87ce88e0eee8e71879584761a61909effb",
	"random/gangStaticEDF/m4/wcet":       "49841a4d23d275025d7d700b279e3f4dcc7acf39c2a605ba93c4670f3481c19b",
	"random/gangStaticEDF/m4/c=0.6":      "14b07e56b6ff63e225217f86d01dd100f64742469c5d132c9e9e27f8d77535be",
	"random/gangStaticEDF/m4/uniform":    "a9eb6c6ad9d6a7d1cd6c1e64226a1c01dcbff9b47ae393402bafec70b91d48e0",
	"random/gangStaticEDF/m4/beta=2,5":   "b2759267d58aa8da2cab6e2b9fbc49196d5789bf37f6c57b774918425d41596f",
	"random/gangCCEDF/m2/wcet":           "cad54f3a2fcb158b25afde5a0ab0db203074b7d707c6c686bfa9dbf765afb962",
	"random/gangCCEDF/m2/c=0.6":          "75d0d6abf755fcb1a3daf0bf45d47bc1a91a21a45cf248096650198f199b39ea",
	"random/gangCCEDF/m2/uniform":        "821e0dc4d298b9d2ed697a3a245e6577285c5d31d521ddaa87a69a41964067f0",
	"random/gangCCEDF/m2/beta=2,5":       "de29ea31599f78bb7a75f3f3d8b626e8dbdb001d78e703aa494554c147486541",
	"random/gangCCEDF/m3/wcet":           "f8ad11ebfaf8975b28f593b66c614cdaea5f842088dd97657a3986b1e9089f65",
	"random/gangCCEDF/m3/c=0.6":          "ad025e66136265fd2e12f30b3430b69d4a7064f370d85c24034eb1e15a5da242",
	"random/gangCCEDF/m3/uniform":        "a84296c9d28d4d0b55c84124bceb4a94cd2a5d59ef91ee755c7761e2991af627",
	"random/gangCCEDF/m3/beta=2,5":       "6e004312049445c8dd83f876310d7ea58a3e22fee8f664ab16e6a78d16d1e48d",
	"random/gangCCEDF/m4/wcet":           "76587e2e049315384380dda1fccae6710da8db449017564fcf7d49f84698818d",
	"random/gangCCEDF/m4/c=0.6":          "0c9ed7f76d5f4b05f67e4275cef85ed6150bf596dcf51dc731e5421fbf845256",
	"random/gangCCEDF/m4/uniform":        "e36ad8e87d5347620aa09c87e6e7ae302e8e115ecaa325d84110c967ac16d3f6",
	"random/gangCCEDF/m4/beta=2,5":       "6492e2bf132992016137c820ed1410dce68c8feab7a08e297bdc83847621f03c",
	"random/gangLAEDF/m2/wcet":           "76c2c8204817a81a4f145fc8cf9334bc3150de9182a24588bd0f5f61653ecd2a",
	"random/gangLAEDF/m2/c=0.6":          "6d4e9f310f24da37ecfad5ae3d4c494944332f5bfc504e0a6a464be3be355533",
	"random/gangLAEDF/m2/uniform":        "3a5cf1b6f0497d73a5598b36f853468c74c48eb41fdff072df1f9320ffa38da8",
	"random/gangLAEDF/m2/beta=2,5":       "cf399e32a7749ddd7388f06313be317d815007a63a649f8add614db72955f4e6",
	"random/gangLAEDF/m3/wcet":           "a3771b72b16890bccecb416d500b93ba1ac5b3cd7ae21468b1bbf73cfd4c2b9a",
	"random/gangLAEDF/m3/c=0.6":          "7a8ecc448642d1978c34067b893cf9744c33e16dcffde265105eaf0c54862379",
	"random/gangLAEDF/m3/uniform":        "0fd518d01f12ded7a63dfbbe18480d8d1000604812cc244f33db9c00a68d6db5",
	"random/gangLAEDF/m3/beta=2,5":       "ca7cfc8112602ffd2b60c59e729d072453a957be25e9dd534212792cce7bb76b",
	"random/gangLAEDF/m4/wcet":           "98f3181547f38782b722a2594e9a43ba8fb5f4e09f348b2e4a9d27d6162050cb",
	"random/gangLAEDF/m4/c=0.6":          "81206482d8b9d469b13fc876e4fddd9725bd468fbc6c200f080cbbe0d21297f7",
	"random/gangLAEDF/m4/uniform":        "41281539b7c06eb96a93313426de250c9b34fdd0a4fbd510598488df97707457",
	"random/gangLAEDF/m4/beta=2,5":       "6d77f1868a401f2928e294eae67e79c1bfc1b528006539311ad14ccca9356814",
	"integral/gangStaticEDF/m2/wcet":     "1352a6aff18602b362062d7b24acfaee47a8ec311a672f4528a0d9da3399d64b",
	"integral/gangStaticEDF/m2/c=0.6":    "c2b3003b51d1c349a82d3cfb1a72c915003f48664a91c6fa7b722b06c65dbb00",
	"integral/gangStaticEDF/m2/uniform":  "bdbbd0b8f9a2a893d576de8b2a2a2591381863a08b1efcfcfc2f514746475d29",
	"integral/gangStaticEDF/m2/beta=2,5": "89d0e3209639c2f4fdb8234e5d5e726daaa3834b5457258b784ec473423ab0a4",
	"integral/gangStaticEDF/m3/wcet":     "d63607d48254fa5ac0b5c2040e550fb0d5b1793ff76374d48ef69559dfbdee58",
	"integral/gangStaticEDF/m3/c=0.6":    "7b9ea2b4250d2a97210b60e77e080e221f0da66fe359246789cbbb97656a7a95",
	"integral/gangStaticEDF/m3/uniform":  "aba63f17fb3d941925e632837da54fc418d3e4fa0f2353736067c59f54b8ebdd",
	"integral/gangStaticEDF/m3/beta=2,5": "48981869083b4d526564f36838fbb6daa5b6029264a36011a6a43698dee20621",
	"integral/gangStaticEDF/m4/wcet":     "2d5ed28960d0e9a022dd4663282143fdafc5061a27c06d3b20cc82253a8db8a4",
	"integral/gangStaticEDF/m4/c=0.6":    "811ac9d7989d80b9478377c67e727762809d40b609ee3d2741e659c0a681c70b",
	"integral/gangStaticEDF/m4/uniform":  "b6729a6941dee3e9093cccbe354594e2ebf15be7a588d248a5085c5d1d7bd9cc",
	"integral/gangStaticEDF/m4/beta=2,5": "ce34d31924b88dc54ed02e757adfda7a72949949b40bbeea5d9ee8fb6a5e0f6e",
	"integral/gangCCEDF/m2/wcet":         "9ce4b3de5159505a7a9e8f05a18ff0ee91dc89ce4dbd4e29cd71b8da60080ca5",
	"integral/gangCCEDF/m2/c=0.6":        "fd15cc6252b3a70bd0ea2aae40307c744ac58ae4c5373ada6b21e3795a636c67",
	"integral/gangCCEDF/m2/uniform":      "4a3f0554c1c77a3553b232c4ebfc59d86cae92b6d5efdc35340aeb9d32b3b2ce",
	"integral/gangCCEDF/m2/beta=2,5":     "899410e4259415d4a2f4f7e2eb310f5c1ce39ce5dee5fe9e33253ded93d8d9a0",
	"integral/gangCCEDF/m3/wcet":         "8a1b6e57e8a3ac7318e0423ea026b8e81833a38a84aa2ed929210086d4bc8f76",
	"integral/gangCCEDF/m3/c=0.6":        "849c92785b4c31bc17755ed62a4dd9b2e8a79e04860c1da1f6f74cefd6472906",
	"integral/gangCCEDF/m3/uniform":      "2c243d333a0fb430646eba5da4a9f3807241e1eb1d9fa3199879f62f9f37d202",
	"integral/gangCCEDF/m3/beta=2,5":     "4a1a7539e3deb43cd2e87125782e4b93f7d4945ec2b8974bbcc3728ecc392229",
	"integral/gangCCEDF/m4/wcet":         "1925021a00874b4e127ad34f17d52863da42fb6e88c2415e914757c959189fae",
	"integral/gangCCEDF/m4/c=0.6":        "db807ef90b1c3dbef1a61a2a401c9a00293fcd9a5728c04598b5161b2eeebc35",
	"integral/gangCCEDF/m4/uniform":      "a530ffc2a8725353f46a8af4648f0556a8f95755feda46c39ea4ae78a200e9fc",
	"integral/gangCCEDF/m4/beta=2,5":     "1bb8d0a0fffd0951e994e4287a3a836f90b743b4d3384c9934df0b9a23f61819",
	"integral/gangLAEDF/m2/wcet":         "1ccc1c722ec09b13cecd6970a121d28bd6054d4744a2de55fb74faf302586201",
	"integral/gangLAEDF/m2/c=0.6":        "07b5b93955d23657da55a368ace22c6c033d7725a651994447e64c3924a79751",
	"integral/gangLAEDF/m2/uniform":      "3950768534c3a0bb2a6a4fca79bae056afae221fbc921b94a8b563286f423462",
	"integral/gangLAEDF/m2/beta=2,5":     "95a63362ce171251d5d3a983d7d9a1be4033fc25d7a6e02910b65e4ff1ee3eea",
	"integral/gangLAEDF/m3/wcet":         "109e05cfafd43069538c4a8dc26e0e1eb23533589f0e09d442013e7b3c3c1e05",
	"integral/gangLAEDF/m3/c=0.6":        "94bed93e2aba0c75ac02ac98989817db6a3ff99242ca7965c671dbd98d96e449",
	"integral/gangLAEDF/m3/uniform":      "be6b4daf57e3c892772f205699d9c3a8f921cc935d64d8bdf757e23b97f36ac2",
	"integral/gangLAEDF/m3/beta=2,5":     "70016e78611120c0ba523a9bf90bbbf27aabd738128e8a8a179e116fe0a8b582",
	"integral/gangLAEDF/m4/wcet":         "7ade9d167b7febaf961799365d02d07260dbc2fa9e81c9214979f3f1225f04bc",
	"integral/gangLAEDF/m4/c=0.6":        "9192db355f1fca36ebd139b01e44a54f3ec2416ed5c850540b375c1ba27921b2",
	"integral/gangLAEDF/m4/uniform":      "07ceaab554a2016a745c9a02327cac9051c865bca67eb47117793fafac1a5e73",
	"integral/gangLAEDF/m4/beta=2,5":     "bfe2f2918303196e7cb84a7b68c795a68b9ba9547c27c4e31ea3b56cf570ca64",
	"frame/gangStaticEDF/m2/wcet":        "d2d2d0d9ee91fdec280d4995924e9d20cdf79f904a78f921e17bfd598b91b21f",
	"frame/gangStaticEDF/m2/c=0.6":       "799b62b1b06a50dfd2fa21b85380eb862415b499733632e6122fba64ddeb8987",
	"frame/gangStaticEDF/m2/uniform":     "5b7b0575b2665ba9db857bcd1a8138993bc2a07c52f63256140a1435e3fe1755",
	"frame/gangStaticEDF/m2/beta=2,5":    "3743b7b9870dcebbb6a72954e7b10843b80e87bac5aa5eb5d943708808a1a484",
	"frame/gangStaticEDF/m3/wcet":        "057aef6282060d58d53076fdb1178327c2e8b1729b494f24adc5bc6863c14887",
	"frame/gangStaticEDF/m3/c=0.6":       "b768f913303ba1dd8d27710eb106fe686035b1359fcbdb0aaa242e3ef674e120",
	"frame/gangStaticEDF/m3/uniform":     "c5dfe07a6cac7f9ee93ae17e9edbf73bcae11cec9106e50756b5cc5de45074af",
	"frame/gangStaticEDF/m3/beta=2,5":    "80f8fd1efbf7fe62fa54c4e5967df1e9475ba8e359ff4a4d16b9a68ef30537bb",
	"frame/gangStaticEDF/m4/wcet":        "86f95edc1439a6422686f049f8c764f3cd05f3ae39e59e91b06ba37394889f2e",
	"frame/gangStaticEDF/m4/c=0.6":       "bbc40fb83015592daee9826fcf222a0a132b5e8a788917fb635e3d9f57a097a6",
	"frame/gangStaticEDF/m4/uniform":     "d2f1aac3d0ce6eb61e0aefd0a3256fda58404bce10c7ef9da7f5faf6962d3176",
	"frame/gangStaticEDF/m4/beta=2,5":    "3e30e5ba35f06bca6c3fa9704a9991bf4ffb5f244e0c536de843cd203ef1e444",
	"frame/gangCCEDF/m2/wcet":            "6907af88f765f29dd66b14266d4f502af18ffd3e48300011b4a9f6d49fa9cda4",
	"frame/gangCCEDF/m2/c=0.6":           "0e30f3b23a9a68a6f7f74feb55019fb1e6aca7f1b902a00cafc71e4664d8cb9a",
	"frame/gangCCEDF/m2/uniform":         "5941643f5a222b4a69ccb98a58029a8cf04978423c95ed803d56708053fc2f1f",
	"frame/gangCCEDF/m2/beta=2,5":        "a11fad75acacd8cf91a8403615793f2e7c54b94a484d2726a89fb5e675f77060",
	"frame/gangCCEDF/m3/wcet":            "436e8c1bd0251af2e348ff2776c2ec89fc6aedc7ffe8ffe3a72fd89d86978060",
	"frame/gangCCEDF/m3/c=0.6":           "aa518b0212ec9f1a5635779286974caede06d9d360a008897e46204a0e7b5d95",
	"frame/gangCCEDF/m3/uniform":         "f562e9605c2ac0ed0e310eb4d7f4a249b96af9416681967406e463b0b5730934",
	"frame/gangCCEDF/m3/beta=2,5":        "b2c19fb64abfc815602b8c84ef6d12110aa53f304b9797c3247e6bfeceafcdf6",
	"frame/gangCCEDF/m4/wcet":            "2b4b2aae4e4626bd03bd25cf723f8c9f56c6aa10f2456e28422efa54d675e47d",
	"frame/gangCCEDF/m4/c=0.6":           "1e78e6f29b3be8a970829fbeac9690b498a0427f689c674bfcdf04959dabc8dd",
	"frame/gangCCEDF/m4/uniform":         "8cd833080ee8c6761d4b17bf2114b662295977960c4d9b21c448eab361ee1706",
	"frame/gangCCEDF/m4/beta=2,5":        "bc0e8cdf5ad9dc898146b067fe27e86ebc1e4f9835e839592a15758e21bad6f9",
	"frame/gangLAEDF/m2/wcet":            "d9208c1c80cc149d884abb4b2f86a698f1106c7cb3591efa48a023d2d57c88fe",
	"frame/gangLAEDF/m2/c=0.6":           "675aec069da154ec829635460d8d0ff59df99d2db039c661a4a722930a76196b",
	"frame/gangLAEDF/m2/uniform":         "a01ac3be80269709d420b3546f9e906572de5c8aa5629f8d440cb45cc19e0ebf",
	"frame/gangLAEDF/m2/beta=2,5":        "20765fbe239de8e5b1eccb524cb10a57b82e674d487f89f6e74d2f49842b1c12",
	"frame/gangLAEDF/m3/wcet":            "f4b996201b6ef36557a09f33738cd3785a07eb246713dcbb809fa8bb218167b2",
	"frame/gangLAEDF/m3/c=0.6":           "bd87ca5b7e617803e5332c649ecbff405317b1c2c09d6026163a512f40d850c4",
	"frame/gangLAEDF/m3/uniform":         "6006b4abe107584d4650ff216e2b44332d752d2ab99a438e5979ca74f92ddb5b",
	"frame/gangLAEDF/m3/beta=2,5":        "5f44826b47a0d349007c62fbfae820f5c270b7994c77558d5cb7d9eb7eea9f65",
	"frame/gangLAEDF/m4/wcet":            "32503c91a46e2ba47e6403d2e1d272aca0567e7db4a10923fb8570f8729354f1",
	"frame/gangLAEDF/m4/c=0.6":           "6672a2fc21a8ee0876c4c3ce162de8e2cce4abbe80adcf0efa735c9fd6a65624",
	"frame/gangLAEDF/m4/uniform":         "4bd45b8f6de72297b424970223d29f168a0faafd7ac38affcb5f3c8590760983",
	"frame/gangLAEDF/m4/beta=2,5":        "8600d9107508bc5bde24f83e338e079ac5b8d0dd7ddabfd7a8637941c6471eb4",
}

// TestMultiCorePartitionedRejectsGang: a gang policy plans one frequency
// for all m cores, so a partitioned run with it on m > 1 cores is an
// error under either packing, even for a set it would not visibly miss
// on. At m = 1 the gang policies stay valid (TestGangM1ScalarEquivalent).
func TestMultiCorePartitionedRejectsGang(t *testing.T) {
	g := task.Generator{N: 6, Utilization: 0.4, Rand: rand.New(rand.NewSource(5))}
	ts, err := g.Generate()
	if err != nil {
		t.Fatal(err)
	}
	for _, pl := range []sched.Placement{sched.PartitionedFF, sched.PartitionedWF} {
		for _, pol := range []string{"gangStaticEDF", "gangCCEDF", "gangLAEDF"} {
			_, err := RunMulti(MultiConfig{Tasks: ts, Machine: machine.Machine1().WithCores(2), Policy: pol, Placement: pl})
			if err == nil || !strings.Contains(err.Error(), "global placement") {
				t.Errorf("%s on %v: err = %v, want a gang-policy rejection", pol, pl, err)
			}
		}
	}
}
