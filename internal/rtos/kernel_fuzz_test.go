package rtos

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"rtdvs/internal/core"
	"rtdvs/internal/fault"
	"rtdvs/internal/machine"
)

// TestKernelRandomOperations drives the kernel through long random
// sequences of every lifecycle operation — step, add (deferred,
// immediate, smart, sporadic), remove, trigger, policy swap, command —
// and checks global invariants after each: time and energy are monotone,
// time components conserve, the policy's point is always a point of the
// machine, counters stay consistent, the index agrees with the registry,
// and nothing panics. This is the closest a deterministic test gets to
// fuzzing the executive.
func TestKernelRandomOperations(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			k := randomOperations(t, seed)
			// The status and trace paths must render whatever state we
			// ended in.
			if s := k.Status(); len(s) == 0 {
				t.Error("empty status")
			}
			_ = k.EventLog().String()
		})
	}
}

// randomOperations runs TestKernelRandomOperations' seeded sequence of
// 300 operations, checking the invariants after each, and returns the
// kernel in its final state (TestKernelPinned hashes it).
func randomOperations(t *testing.T, seed int64) *Kernel {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	specs := []*machine.Spec{machine.Machine0(), machine.Machine1(), machine.Machine2(), machine.LaptopK62()}
	spec := specs[r.Intn(len(specs))]
	p, err := core.ByName("ccEDF")
	if err != nil {
		t.Fatal(err)
	}
	k, err := NewKernel(spec, machine.K62SwitchOverhead, p)
	if err != nil {
		t.Fatal(err)
	}
	k.SetEventLog(NewEventLog(512))

	names := core.ExtendedNames()
	var sporadics []TaskID
	lastNow, lastEnergy := 0.0, 0.0
	nextName := 0

	for op := 0; op < 300; op++ {
		switch r.Intn(10) {
		case 0, 1, 2, 3: // step forward
			k.Step(k.Now() + r.Float64()*40)
		case 4: // add a periodic task (random admission mode)
			nextName++
			cfg := TaskConfig{
				Name:   fmt.Sprintf("t%d", nextName),
				Period: 5 + r.Float64()*200,
			}
			cfg.WCET = cfg.Period * (0.02 + 0.2*r.Float64())
			switch r.Intn(3) {
			case 0:
				_, _ = k.AddTask(cfg, AddOptions{})
			case 1:
				_, _ = k.AddTask(cfg, AddOptions{Immediate: true})
			default:
				_, _, _ = k.TryAddImmediate(cfg)
			}
		case 5: // add a sporadic task
			nextName++
			cfg := TaskConfig{
				Name:   fmt.Sprintf("s%d", nextName),
				Period: 20 + r.Float64()*200,
			}
			cfg.WCET = cfg.Period * (0.02 + 0.1*r.Float64())
			if id, err := k.AddSporadic(cfg); err == nil {
				sporadics = append(sporadics, id)
			}
		case 6: // trigger a sporadic task (may legitimately fail)
			if len(sporadics) > 0 {
				_ = k.Trigger(sporadics[r.Intn(len(sporadics))])
			}
		case 7: // remove a random task
			if ts := k.Tasks(); len(ts) > 0 {
				victim := ts[r.Intn(len(ts))].ID
				if err := k.RemoveTask(victim); err != nil {
					t.Fatalf("op %d: remove: %v", op, err)
				}
				alive := sporadics[:0]
				for _, id := range sporadics {
					if id != victim {
						alive = append(alive, id)
					}
				}
				sporadics = alive
			}
		case 8: // hot-swap the policy
			np, err := core.ExtendedByName(names[r.Intn(len(names))])
			if err != nil {
				t.Fatal(err)
			}
			if err := k.SetPolicy(np); err != nil {
				t.Fatalf("op %d: swap: %v", op, err)
			}
		case 9: // textual command path
			if _, err := k.Command("policy ccEDF"); err != nil {
				t.Fatalf("op %d: command: %v", op, err)
			}
		}

		// --- invariants ---
		if k.Now() < lastNow-1e-9 {
			t.Fatalf("op %d: time went backward: %v -> %v", op, lastNow, k.Now())
		}
		lastNow = k.Now()
		e := k.CPU().Energy()
		if e < lastEnergy-1e-9 || math.IsNaN(e) || math.IsInf(e, 0) {
			t.Fatalf("op %d: energy not monotone/finite: %v -> %v", op, lastEnergy, e)
		}
		lastEnergy = e
		total := k.CPU().BusyTime() + k.CPU().IdleTime() + k.CPU().HaltTime()
		if total > k.Now()+1e-6 {
			t.Fatalf("op %d: accounted time %v exceeds now %v", op, total, k.Now())
		}
		// The policy's point is meaningful only once it has been
		// attached to a non-empty task set.
		if len(k.Tasks()) > 0 {
			pt := k.Policy().Point()
			ok := false
			for _, op2 := range spec.Points {
				if op2 == pt {
					ok = true
				}
			}
			if !ok {
				t.Fatalf("op %d: policy point %v not on machine %s", op, pt, spec.Name)
			}
		}
		for _, ts := range k.Tasks() {
			if ts.Completions > ts.Releases {
				t.Fatalf("op %d: task %s completed more than released: %+v", op, ts.Name, ts)
			}
		}
		if err := indexError(k); err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
	}
	return k
}

// FuzzKernelOps is the native fuzz target behind the CI fuzz job
// (make fuzz / go test -fuzz=FuzzKernelOps -fuzztime=20s): the input
// bytes program the kernel configuration — platform, fault-injection
// plan, overrun watchdog — and an operation sequence, and the kernel's
// global invariants are asserted after every operation. Unlike the
// seeded test above it explores the fault-injection and containment
// paths, which is where PR 2's new state machines live.
func FuzzKernelOps(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 0x80, 0x20, 3, 40, 200, 10, 10, 10, 10})
	f.Add([]byte{2, 0xFF, 0x41, 4, 30, 60, 90, 5, 5, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{3, 0x10, 0x99, 0, 7, 7, 7, 7, 7, 7, 7, 7, 0, 1, 2, 3, 4, 5, 6})

	policies := []string{"none", "ccEDF", "ccRM", "laEDF", "ccEDF+contain", "laEDF+contain"}
	specs := []*machine.Spec{machine.Machine0(), machine.Machine1(), machine.Machine2(), machine.LaptopK62()}

	f.Fuzz(func(t *testing.T, data []byte) {
		pos := 0
		next := func() byte {
			if pos >= len(data) {
				return 0
			}
			b := data[pos]
			pos++
			return b
		}
		frac := func() float64 { return float64(next()) / 255 }

		spec := specs[int(next())%len(specs)]
		p, err := core.ByName(policies[int(next())%len(policies)])
		if err != nil {
			t.Fatal(err)
		}
		k, err := NewKernel(spec, machine.K62SwitchOverhead, p)
		if err != nil {
			t.Fatal(err)
		}
		k.SetEventLog(NewEventLog(256))
		// A byte-programmed fault plan; the zero plan is a silent injector.
		k.SetFaults(fault.MustNew(fault.Plan{
			Seed:           int64(next()),
			OverrunProb:    frac() * 0.5,
			OverrunFactor:  1 + frac(),
			SwitchDenyProb: frac() * 0.5,
			StuckProb:      frac() * 0.2,
			StuckSpan:      frac() * 5,
			OverheadProb:   frac() * 0.5,
			OverheadFactor: 1 + frac()*4,
		}))
		k.SetOverrunThreshold(int(next()) % 5) // 0 disables the watchdog

		var sporadics []TaskID
		lastNow, lastEnergy := 0.0, 0.0
		nextName := 0

		for op := 0; op < 200 && pos < len(data); op++ {
			switch next() % 8 {
			case 0, 1, 2: // bounded step
				k.Step(k.Now() + frac()*20)
			case 3: // add a periodic task
				nextName++
				cfg := TaskConfig{Name: fmt.Sprintf("t%d", nextName), Period: 5 + frac()*100}
				cfg.WCET = cfg.Period * (0.02 + 0.25*frac())
				_, _ = k.AddTask(cfg, AddOptions{Immediate: next()%2 == 0})
			case 4: // add a sporadic task
				nextName++
				cfg := TaskConfig{Name: fmt.Sprintf("s%d", nextName), Period: 20 + frac()*100}
				cfg.WCET = cfg.Period * (0.02 + 0.1*frac())
				if id, err := k.AddSporadic(cfg); err == nil {
					sporadics = append(sporadics, id)
				}
			case 5: // trigger a sporadic task (may legitimately fail)
				if len(sporadics) > 0 {
					_ = k.Trigger(sporadics[int(next())%len(sporadics)])
				}
			case 6: // remove a random task
				if ts := k.Tasks(); len(ts) > 0 {
					victim := ts[int(next())%len(ts)].ID
					if err := k.RemoveTask(victim); err != nil {
						t.Fatalf("op %d: remove: %v", op, err)
					}
					alive := sporadics[:0]
					for _, id := range sporadics {
						if id != victim {
							alive = append(alive, id)
						}
					}
					sporadics = alive
				}
			case 7: // hot-swap the policy
				np, err := core.ByName(policies[int(next())%len(policies)])
				if err != nil {
					t.Fatal(err)
				}
				if err := k.SetPolicy(np); err != nil {
					t.Fatalf("op %d: swap: %v", op, err)
				}
			}

			// --- invariants (same family as TestKernelRandomOperations) ---
			if k.Now() < lastNow-1e-9 {
				t.Fatalf("op %d: time went backward: %v -> %v", op, lastNow, k.Now())
			}
			lastNow = k.Now()
			e := k.CPU().Energy()
			if e < lastEnergy-1e-9 || math.IsNaN(e) || math.IsInf(e, 0) {
				t.Fatalf("op %d: energy not monotone/finite: %v -> %v", op, lastEnergy, e)
			}
			lastEnergy = e
			total := k.CPU().BusyTime() + k.CPU().IdleTime() + k.CPU().HaltTime()
			if total > k.Now()+1e-6 {
				t.Fatalf("op %d: accounted time %v exceeds now %v", op, total, k.Now())
			}
			// Denied transitions must leave the hardware on the machine's
			// grid regardless of what the injector did.
			hw := k.CPU().Point()
			onGrid := false
			for _, op2 := range spec.Points {
				if op2 == hw {
					onGrid = true
				}
			}
			if !onGrid {
				t.Fatalf("op %d: hardware point %v not on machine %s", op, hw, spec.Name)
			}
			for _, ts := range k.Tasks() {
				if ts.Completions > ts.Releases {
					t.Fatalf("op %d: task %s completed more than released: %+v", op, ts.Name, ts)
				}
				if ts.Injected > ts.Overruns {
					t.Fatalf("op %d: task %s injected %d exceeds overruns %d",
						op, ts.Name, ts.Injected, ts.Overruns)
				}
			}
			if err := indexError(k); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
		}
		if s := k.Status(); len(s) == 0 {
			t.Error("empty status")
		}
	})
}
