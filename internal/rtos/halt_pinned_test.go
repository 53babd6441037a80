package rtos

import (
	"math/rand"
	"runtime"
	"testing"

	"rtdvs/internal/fault"
	"rtdvs/internal/machine"
)

// addHaltTasks registers four short-period tasks with varying demand
// (utilization 0.7 at worst case) on k, so that on the K6-2+ with its
// 0.4 ms voltage and 41 µs frequency stop intervals many releases and
// completions fall inside a stop interval.
func addHaltTasks(t *testing.T, k *Kernel) {
	t.Helper()
	fracs := []float64{0.3, 1.0, 0.5, 0.9, 0.2, 0.7, 0.45}
	for _, row := range []struct {
		name         string
		period, wcet float64
	}{{"A", 3, 0.6}, {"B", 4.5, 0.9}, {"C", 7, 1.4}, {"D", 11, 1.1}} {
		wcet := row.wcet
		if _, err := k.AddTask(TaskConfig{Name: row.name, Period: row.period, WCET: wcet,
			Work: func(inv int) float64 { return fracs[inv%len(fracs)] * wcet },
		}, AddOptions{Immediate: true}); err != nil {
			t.Fatal(err)
		}
	}
}

// inHalt reports whether k is inside a transition stop interval.
func inHalt(k *Kernel) bool { return k.now < k.haltUntil-timeEps }

// TestKernelHaltPathsPinned hashes kernel runs on the K6-2+ with its
// switch overhead that exercise every path a stop interval takes
// through Kernel.Step, against digests recorded before the halt was
// elapsed in the iteration that starts it:
//
//   - releases falling due inside a stop interval, under the EDF and RM
//     policies, static and dynamic (one Step call per run);
//   - Replay arrivals, and so Step targets and deferrable-server demand,
//     inside a stop interval, which the next Step elapses at its top;
//   - the load shedder's window closing inside a stop interval;
//   - the overrun watchdog armed under an injected-overrun plan, with
//     containment;
//   - sporadic triggers between Step calls inside a stop interval, a
//     sporadic job whose deadline passes inside one (its period is
//     shorter than a voltage halt), and sporadic deadlines as events.
//
// Each run also checks that its case occurred, where the kernel's state
// shows it. Counted at the loop top after each elapsed stop interval, the
// dynamic policies' release runs find releases due 8 to 22 times, the
// shedder run closes 4 windows there, and the sporadic run aborts 7
// sporadic jobs there and 26 more released with their deadline already
// passed.
func TestKernelHaltPathsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests are recorded on amd64; other architectures may fuse multiply-adds")
	}
	spec := machine.LaptopK62
	type pin struct {
		name string
		run  func(t *testing.T) string
	}
	var pins []pin
	for _, policy := range []string{"ccEDF", "laEDF", "ccRM", "staticRM", "staticEDF"} {
		policy := policy
		pins = append(pins, pin{"releases/" + policy, func(t *testing.T) string {
			k := pinKernel(t, spec(), machine.K62SwitchOverhead, policy)
			k.SetEventLog(NewEventLog(1 << 15))
			addHaltTasks(t, k)
			k.Step(1500)
			if k.CPU().HaltTime() <= 0 {
				t.Fatal("no stop interval elapsed")
			}
			return kernelDigest(k)
		}})
	}
	for _, policy := range []string{"ccEDF", "laEDF", "ccRM"} {
		policy := policy
		pins = append(pins, pin{"replay/" + policy, func(t *testing.T) string {
			k := pinKernel(t, spec(), machine.K62SwitchOverhead, policy)
			k.SetEventLog(NewEventLog(1 << 15))
			addHaltTasks(t, k)
			ds, err := NewDeferrableServer(k, "ds", 20, 1)
			if err != nil {
				t.Fatal(err)
			}
			aw := AperiodicWorkload{MeanInterarrival: 0.9, MeanCycles: 0.2, Rand: rand.New(rand.NewSource(5))}
			arr, err := aw.Generate(1500)
			if err != nil {
				t.Fatal(err)
			}
			inside := 0
			for _, a := range arr {
				k.Step(a.Time)
				if inHalt(k) {
					inside++
				}
				if _, err := ds.Submit(a.Name, a.Cycles); err != nil {
					t.Fatal(err)
				}
			}
			k.Step(1500)
			if inside == 0 {
				t.Fatal("no arrival fell inside a stop interval")
			}
			return kernelDigest(k, ds.Completed())
		}})
	}
	pins = append(pins, pin{"shed/laEDF", func(t *testing.T) string {
		k := pinKernel(t, spec(), machine.K62SwitchOverhead, "laEDF")
		k.SetEventLog(NewEventLog(1 << 15))
		k.SetFaults(fault.MustNew(fault.Burst(4)))
		if err := k.SetLoadShedding(ShedConfig{Window: 6.1, MissFrac: 0.1, TriggerWindows: 1,
			RecoverWindows: 2, CalmFrac: 0.02}); err != nil {
			t.Fatal(err)
		}
		addHaltTasks(t, k)
		k.Step(1500)
		if k.Sheds() == 0 || k.ShedRecoveries() == 0 {
			t.Fatalf("%d sheds and %d recoveries, want both", k.Sheds(), k.ShedRecoveries())
		}
		return kernelDigest(k)
	}})
	pins = append(pins, pin{"watchdog/laEDF+contain", func(t *testing.T) string {
		k := pinKernel(t, spec(), machine.K62SwitchOverhead, "laEDF+contain")
		k.SetEventLog(NewEventLog(1 << 15))
		k.SetFaults(fault.MustNew(fault.Plan{Seed: 3, OverrunProb: 0.15, OverrunFactor: 1.4, OverrunTail: 0.2}))
		k.SetOverrunThreshold(2)
		addHaltTasks(t, k)
		k.Step(1500)
		adapted := 0
		for _, e := range k.EventLog().Events() {
			if e.Kind == EvRedeclare || e.Kind == EvDemote {
				adapted++
			}
		}
		if adapted == 0 {
			t.Fatal("the watchdog never adapted a task")
		}
		return kernelDigest(k)
	}})
	pins = append(pins, pin{"sporadic/ccEDF", func(t *testing.T) string {
		k := pinKernel(t, spec(), machine.K62SwitchOverhead, "ccEDF")
		k.SetEventLog(NewEventLog(1 << 15))
		addHaltTasks(t, k)
		var sp []TaskID
		for _, c := range []TaskConfig{
			{Name: "s0", Period: 0.25, WCET: 0.005},
			{Name: "s1", Period: 2.5, WCET: 0.2},
			{Name: "s2", Period: 6, WCET: 0.3},
		} {
			id, err := k.AddSporadic(c)
			if err != nil {
				t.Fatal(err)
			}
			sp = append(sp, id)
		}
		r := rand.New(rand.NewSource(9))
		inside := 0
		for now := 0.0; now < 1500; now += 0.05 + r.Float64()*0.6 {
			k.Step(now)
			id := sp[r.Intn(len(sp))]
			if k.Trigger(id) == nil && inHalt(k) {
				inside++
			}
		}
		k.Step(1500)
		if inside == 0 {
			t.Fatal("no sporadic trigger fell inside a stop interval")
		}
		return kernelDigest(k)
	}})

	want := map[string]string{
		"releases/ccEDF":         "ce4b84cb9493aa1d0fed61c1e3a762a6cc4eeca4735ec6fef82eb9092bfc48e6",
		"releases/laEDF":         "14345dd7d199dcaeaebeadee24d674cdc1d21decae98f43d970e4ef407d0141f",
		"releases/ccRM":          "ec61d5439432a621b8ebab9a7ad1a65d4758ce58467b8952cb1fbc96cdabba55",
		"releases/staticRM":      "c7b4b57704dc3d7f347a6bb5c1296fa992d3bbab5ec467aae93630d0ebb404f6",
		"releases/staticEDF":     "f18dcab6c76c845e071767f213a820a3bb201e70b262937cd165653f5e003971",
		"replay/ccEDF":           "5e7708f8189d1bb63c092e9eb55862378befd1440ef11d247117d8e1440e25f6",
		"replay/laEDF":           "e007502fe82d5727943c740ef5a10e58f46fddb19fbed5fc0ee404e2a731d544",
		"replay/ccRM":            "a7b78e7fa2f00ae87b27da03b875f8228fd686be6b978dd6ad110016377afc2a",
		"shed/laEDF":             "df894b20950342c8f96244bfaa7f9af6ef3ccc087af48377db9c903a680f6cd6",
		"watchdog/laEDF+contain": "c7a418a259872e641a687f666a53e38f752056b504348f677734ff979974859a",
		"sporadic/ccEDF":         "e43a2d4f05eb57d46a2a427f5302b0e9cf1fcc31c7807f25aa18f7bbf65a9b70",
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
