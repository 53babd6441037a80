package rtos

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"rtdvs/internal/core"
	"rtdvs/internal/fault"
	"rtdvs/internal/machine"
)

// kernelDigest hashes everything a kernel run reports: the CPU's energy,
// cycles, time split and switch count, the task table, every miss and
// overrun, and the full event trace, plus any retired aperiodic jobs.
// Floats print in Go's shortest round-trip form, so equal digests mean
// bit-equal results.
func kernelDigest(k *Kernel, jobs ...[]*Job) string {
	h := sha256.New()
	cpu := k.CPU()
	fmt.Fprintf(h, "%v %v %v %v %v %v %d %d\n", k.Now(), cpu.Energy(), cpu.Cycles(),
		cpu.BusyTime(), cpu.IdleTime(), cpu.HaltTime(), cpu.Switches(), cpu.Denied())
	fmt.Fprintf(h, "%+v\n%+v\n%+v\n", k.Tasks(), k.Misses(), k.Overruns())
	if l := k.EventLog(); l != nil {
		fmt.Fprintf(h, "dropped %d\n", l.Dropped())
		for _, e := range l.Events() {
			fmt.Fprintf(h, "%v %d %d %s %v\n", e.Time, int(e.Kind), e.Task, e.Name, e.Value)
		}
	}
	for _, js := range jobs {
		for _, j := range js {
			fmt.Fprintf(h, "%s %v %v %v %v\n", j.Name, j.Arrival, j.Cycles, j.Done, j.CompletedAt)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// pinMixed registers three periodic tasks with varying demand, a
// deferrable server, a polling server and a sporadic task, then replays
// a seeded aperiodic trace into the two servers (alternating), tries a
// sporadic trigger at every third arrival, and runs to 1000 ms. It
// returns the digest of the run.
func pinMixed(t *testing.T, k *Kernel) string {
	t.Helper()
	k.SetEventLog(NewEventLog(1 << 15))
	fracs := []float64{0.2, 0.9, 0.4, 0.7, 0.3, 0.8, 1.0}
	for _, row := range []struct {
		name         string
		period, wcet float64
	}{{"T1", 8, 2}, {"T2", 10, 2}, {"T3", 14, 1}} {
		wcet := row.wcet
		if _, err := k.AddTask(TaskConfig{
			Name: row.name, Period: row.period, WCET: wcet,
			Work: func(inv int) float64 { return fracs[inv%len(fracs)] * wcet },
		}, AddOptions{Immediate: true}); err != nil {
			t.Fatal(err)
		}
	}
	ds, err := NewDeferrableServer(k, "ds", 50, 5)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := NewServer(k, "ps", 40, 2)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := k.AddSporadic(TaskConfig{Name: "sp", Period: 60, WCET: 3,
		Work: func(inv int) float64 { return fracs[(inv+3)%len(fracs)] * 3 }})
	if err != nil {
		t.Fatal(err)
	}
	aw := AperiodicWorkload{MeanInterarrival: 15, MeanCycles: 1.2, Rand: rand.New(rand.NewSource(11))}
	arr, err := aw.Generate(1000)
	if err != nil {
		t.Fatal(err)
	}
	triggers, refused := 0, 0
	for i, a := range arr {
		k.Step(a.Time)
		var sink JobSink = ds
		if i%2 == 1 {
			sink = ps
		}
		if _, err := sink.Submit(a.Name, a.Cycles); err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			triggers++
			if k.Trigger(sp) != nil {
				refused++
			}
		}
	}
	k.Step(1000)
	if refused == triggers {
		t.Fatalf("all %d sporadic triggers refused", triggers)
	}
	return kernelDigest(k, ds.Completed(), ps.Completed())
}

func pinKernel(t *testing.T, spec *machine.Spec, ov machine.SwitchOverhead, policy string) *Kernel {
	t.Helper()
	p, err := core.ExtendedByName(policy)
	if err != nil {
		t.Fatal(err)
	}
	k, err := NewKernel(spec, ov, p)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// TestKernelPinned hashes whole kernel runs against digests recorded
// before the scheduling point was restructured: the six paper policies
// with and without switch overhead on a workload with both servers and a
// sporadic task, injected overruns under the watchdog and containment,
// the load shedder under sustained overload, and the eight
// TestKernelRandomOperations sequences. A change to the kernel's event
// loop may change its speed, never a bit of these runs. Plans that deny
// or stick transitions are left out: their retry timing is pinned by
// TestKernelIdleRetryIsPunctual.
func TestKernelPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests are recorded on amd64; other architectures may fuse multiply-adds")
	}
	type pin struct {
		name string
		run  func(t *testing.T) string
	}
	var pins []pin
	for _, name := range core.Names() {
		for _, ov := range []struct {
			tag string
			o   machine.SwitchOverhead
		}{{"free", machine.SwitchOverhead{}}, {"k62", machine.K62SwitchOverhead}} {
			name, ov := name, ov
			pins = append(pins, pin{name + "/" + ov.tag, func(t *testing.T) string {
				return pinMixed(t, pinKernel(t, machine.Machine0(), ov.o, name))
			}})
		}
	}
	pins = append(pins, pin{"laEDF+contain/overrun+watchdog", func(t *testing.T) string {
		k := pinKernel(t, machine.Machine1(), machine.K62SwitchOverhead, "laEDF+contain")
		k.SetFaults(fault.MustNew(fault.Plan{Seed: 2, OverrunProb: 0.2, OverrunFactor: 1.5, OverrunTail: 0.2}))
		k.SetOverrunThreshold(3)
		return pinMixed(t, k)
	}})
	pins = append(pins, pin{"ccEDF/shed+sustained", func(t *testing.T) string {
		k := pinKernel(t, machine.Machine0(), machine.SwitchOverhead{}, "ccEDF")
		k.SetEventLog(NewEventLog(1 << 15))
		k.SetFaults(fault.MustNew(fault.SustainedOverload(3)))
		if err := k.SetLoadShedding(ShedConfig{Window: 30, MissFrac: 0.2, TriggerWindows: 2,
			RecoverWindows: 2, CalmFrac: 0.05}); err != nil {
			t.Fatal(err)
		}
		for i, v := range []float64{2, 1, 0} {
			cfg := TaskConfig{Name: fmt.Sprintf("v%d", i), Period: 10 + 5*float64(i), WCET: 3, Value: v}
			if _, err := k.AddTask(cfg, AddOptions{Immediate: true}); err != nil {
				t.Fatal(err)
			}
		}
		k.Step(1500)
		if k.Sheds() == 0 {
			t.Fatal("sustained overload never shed a task")
		}
		return kernelDigest(k)
	}})
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		pins = append(pins, pin{fmt.Sprintf("random/seed%d", seed), func(t *testing.T) string {
			return kernelDigest(randomOperations(t, seed))
		}})
	}

	want := map[string]string{
		"none/free":                      "235c30b5c68d771255fa8b350b7ce51318dc7fda58b1c4b11d3f7770dedf03ce",
		"none/k62":                       "235c30b5c68d771255fa8b350b7ce51318dc7fda58b1c4b11d3f7770dedf03ce",
		"staticRM/free":                  "797706fc937fb62c3acbf11a613ae9dcbd15d82f1c09d598330036999694862d",
		"staticRM/k62":                   "797706fc937fb62c3acbf11a613ae9dcbd15d82f1c09d598330036999694862d",
		"staticEDF/free":                 "a08de10627746870f8f638a999ea930c99c3961d274e97cf95621fc92072c7e8",
		"staticEDF/k62":                  "2db2b4c7b2fb1071cd3b467c38a87e25c592036e89480bfbba7d5a3fce971282",
		"ccEDF/free":                     "a86b5ce3057059bc58297550640cbc1c2de4a3b1270de8f89b0a5a259a958af6",
		"ccEDF/k62":                      "c20acb4ac6b647d60db7342badfdc1c270267c7a38b0491cc8573636ecaa84fe",
		"ccRM/free":                      "b4ce9a6c791052c5cd6161a8cc21841b7c7f4eee0b5b54d8564ac5df0d924527",
		"ccRM/k62":                       "8500da8a99be2ee546a53e309f067cf52bf39adf57e02899cc48bf3634b314f8",
		"laEDF/free":                     "6abdfa5f552131e735ee0d93ea09600fc7346553fe6d91b360548c8599f961c8",
		"laEDF/k62":                      "dd6f9b444a93fa95b48064fc8b9a799cf61d62663b6d1f1bb4036c489d33f093",
		"laEDF+contain/overrun+watchdog": "9410f46448b3b3c66594b8aca6c9d06040cea019b17bec00d019cc8a4ff6f9ff",
		"ccEDF/shed+sustained":           "36cf196bbec2d6f244b156d22c2c9127ed5f82f3190d1c990d43cbece9d50305",
		"random/seed1":                   "01573fb7a6a16992b3ba44ba0ebbc2dcf673a0dc63630c37e3d6eb25e35c3cbd",
		"random/seed2":                   "6fc08b6fd842543b9f57cf8c3d75b99bb2a388caa9280105be365f219fa1f355",
		"random/seed3":                   "5ab08f78058234065ae8f9aeaf5ffdb298d8994a24f2038882253c0db1155baa",
		"random/seed4":                   "4f936b1ae68b7408fd78bacaa68d2d67b11b2b8122003420f5ad4d0b5ed5eb60",
		"random/seed5":                   "3e404eb2476f909e20caa32540628cec1fab6bef6821a016f54cad8842662587",
		"random/seed6":                   "f00eaedd66b007019010f88237c564aeb56ff0880691046dc469c6e7346b9cd8",
		"random/seed7":                   "d80593d6ab2fe07142c9853bcd4dcd7d9801f5a943ffd42b7f25bb1871f850c8",
		"random/seed8":                   "6d913f060b8360c3708b81b896d9225dca1c7a55c78ac52a0d5f5278f70b67eb",
	}
	for _, p := range pins {
		p := p
		t.Run(p.name, func(t *testing.T) {
			got := p.run(t)
			if w, ok := want[p.name]; !ok || got != w {
				t.Errorf("digest %s, want %s", got, w)
			}
		})
	}
}
