package sim

import (
	"reflect"
	"testing"

	"rtdvs/internal/fault"
	"rtdvs/internal/machine"
	"rtdvs/internal/sched"
	"rtdvs/internal/task"
)

// fuzzPeriods are the quantised periods FuzzSimulatorQueues draws from,
// so releases coincide and deadlines tie often.
var fuzzPeriods = []int{10, 20, 25, 40, 50, 100}

// fuzzQueueSet decodes a fuzz input into a task set and a core count.
// Byte 0 picks n in [1, 140], byte 1 the utilization in (0, 1.2], and
// byte 2 the period scale (bit 0: 1.5, off the integer grid) and the core
// count of the global run (2–4). Each task then takes three bytes: a
// period, a phase on the period's 5-unit grid and a weight for its share
// of the utilization. Missing bytes read as zero, so a short input gives
// equal periods and coincident releases.
func fuzzQueueSet(data []byte) (*task.Set, int, error) {
	at := func(k int) int {
		if k < len(data) {
			return int(data[k])
		}
		return 0
	}
	n := 1 + at(0)%140
	u := 1.2 * float64(1+at(1)) / 256
	scale := 1.0
	if at(2)&1 == 1 {
		scale = 1.5
	}
	m := 2 + (at(2)>>1)%3
	tasks := make([]task.Task, n)
	weights := make([]float64, n)
	var sum float64
	for i := range tasks {
		p := fuzzPeriods[at(3+3*i)%len(fuzzPeriods)]
		phase := 5 * (at(4+3*i) % (p / 5))
		tasks[i] = task.Task{Period: scale * float64(p), Phase: scale * float64(phase)}
		weights[i] = float64(1 + at(5+3*i)%8)
		sum += weights[i]
	}
	for i := range tasks {
		tasks[i].WCET = min(u*weights[i]/sum, 1) * tasks[i].Period
	}
	ts, err := task.NewSet(tasks...)
	return ts, m, err
}

// fuzzSeed encodes a corpus entry: n tasks, a utilization byte, the
// scale/core byte, and per-task bytes from f.
func fuzzSeed(n, util, flags int, f func(i int) (period, phase, weight int)) []byte {
	b := []byte{byte(n - 1), byte(util), byte(flags)}
	for i := range n {
		p, ph, w := f(i)
		b = append(b, byte(p), byte(ph), byte(w))
	}
	return b
}

// FuzzSimulatorQueues runs fuzzed sets of up to 140 tasks — ready sets of
// one, two and three words — under EDF (laEDF), RM (ccRM) and global
// gangLAEDF with the invariant checker on, which compares every pick and
// next release time with an O(n) scan.
// No run may fail, and each scalar run must equal its silent-injector
// twin, whose picks the checker scans even in a single frame. The
// policies that read deadlines must also get the simulator's deadline
// order at every hook and give the same results whether they read it or
// sort their own (orderSources).
func FuzzSimulatorQueues(f *testing.F) {
	mixed := func(i int) (int, int, int) { return i % 6, (i * 7) % 20, i % 8 }
	f.Add(fuzzSeed(6, 150, 1, func(i int) (int, int, int) { return []int{0, 0, 1, 1, 0, 2}[i], 0, i })) // ties
	f.Add(fuzzSeed(6, 150, 2, func(i int) (int, int, int) { return []int{0, 0, 1, 1, 0, 2}[i], 0, i })) // ties, integral
	f.Add(fuzzSeed(5, 160, 3, func(i int) (int, int, int) { return i, 3 * i, 2 * i }))                  // phases
	f.Add(fuzzSeed(5, 160, 0, func(i int) (int, int, int) { return i, 3 * i, 2 * i }))                  // phases, integral
	f.Add(fuzzSeed(4, 200, 0, func(int) (int, int, int) { return 1, 0, 3 }))                            // one frame
	f.Add(fuzzSeed(12, 255, 1, mixed))                                                                  // overload
	for _, n := range []int{63, 64, 65, 127, 128, 129} {
		f.Add(fuzzSeed(n, 170, 0, mixed))
		f.Add(fuzzSeed(n, 170, 5, mixed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ts, m, err := fuzzQueueSet(data)
		if err != nil {
			t.Skip(err)
		}
		const horizon = 200
		for _, name := range []string{"laEDF", "ccRM"} {
			run := func(faults *fault.Injector) *Result {
				exec, err := task.ParseExec("uniform", 3)
				if err != nil {
					t.Fatal(err)
				}
				res, err := Run(Config{Tasks: ts, Machine: machine.Machine1(), Policy: mustPolicy(t, name),
					Exec: exec, Horizon: horizon, Faults: faults})
				if err != nil {
					t.Fatalf("%s on %v: %v", name, ts, err)
				}
				return res
			}
			plain, silent := run(nil), run(fault.MustNew(fault.Plan{Seed: 1}))
			silent.Faults = nil
			if !reflect.DeepEqual(plain, silent) {
				t.Fatalf("%s on %v: a silent injector changed the run:\nplain:  %+v\nsilent: %+v", name, ts, plain, silent)
			}
		}
		if _, err := RunMulti(MultiConfig{Tasks: ts, Machine: machine.Machine1().WithCores(m), Policy: "gangLAEDF",
			Placement: sched.Global, Exec: "uniform", Seed: 3, Horizon: horizon}); err != nil {
			t.Fatalf("gangLAEDF on %d cores, %v: %v", m, ts, err)
		}
		orderSources(t, ts, horizon, []int{m}, []string{"uniform"}, []*machine.SwitchOverhead{nil})
	})
}
