package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"

	"rtdvs/internal/experiment"
	"rtdvs/internal/machine"
	"rtdvs/internal/rtos"
	"rtdvs/internal/serve"
	"rtdvs/internal/task"
)

// Input sizes. They are part of the workload definitions in README.md.
const (
	simulateBodies = 512
	batchBodies    = 64
	batchItems     = 32
	fig9Tasks      = 10
	fig9Sets       = 16
	fig9MaxPanels  = 64 // panels per seed; panel seeds never collide
	kernelTasks    = 8
	kernelSimSec   = 2000 // simulated seconds per timed kernel run
)

var (
	// simulatePolicies and execSpecs are drawn per simulate request and
	// per batch frame item.
	simulatePolicies = []string{"ccEDF", "laEDF", "staticEDF", "ccRM", "fbEDF", "stSelect"}
	execSpecs        = []string{"c=0.7", "uniform", "beta=2,5"}
	gangPolicies     = []string{"gangStaticEDF", "gangCCEDF", "gangLAEDF"}
	framePeriods     = []float64{10, 20, 25, 40, 50}
)

// Salts keep the workloads' random streams independent for one seed.
const (
	saltSimulate = 0x51_3a7e
	saltBatch    = 0xba7c4
	saltKernel   = 0x6e7e1
	saltLadder   = 0x1add3
)

// simulateInput is the serve-simulate request mix: encoded bodies and,
// for each, the exact response body the server must return.
type simulateInput struct {
	reqs   []serve.SimulateRequest
	bodies [][]byte
}

// batchInput is the serve-batch request mix.
type batchInput struct {
	reqs   []serve.SimulateBatchRequest
	bodies [][]byte
}

// kernelInput is the rtos-kernel task set and aperiodic arrival trace.
type kernelInput struct {
	tasks    []task.Task
	work     [][]float64 // per task, per-invocation share of WCET
	arrivals []rtos.Arrival
	horizon  float64 // ms
}

// round keeps generated times short in JSON without changing their
// distribution materially.
func round(x, unit float64) float64 { return math.Round(x/unit) * unit }

// randomSet draws n tasks with periods uniform in [pLo, pHi] ms and a
// total utilization of u, split by random weights so that no task exceeds
// utilization 1.
func randomSet(r *rand.Rand, n int, u, pLo, pHi float64) []task.Task {
	for {
		ts := make([]task.Task, n)
		w := make([]float64, n)
		var sum float64
		for i := range w {
			w[i] = 0.1 + r.Float64()
			sum += w[i]
		}
		ok := true
		for i := range ts {
			p := round(pLo+(pHi-pLo)*r.Float64(), 0.001)
			ui := u * w[i] / sum
			if ui > 1 {
				ok = false
			}
			ts[i] = task.Task{Period: p, WCET: round(ui*p, 1e-6)}
		}
		if ok {
			return ts
		}
	}
}

// frameSet draws n tasks sharing one period and a total utilization of u.
func frameSet(r *rand.Rand, n int, u, period float64) []task.Task {
	ts := make([]task.Task, n)
	w := make([]float64, n)
	var sum float64
	for i := range w {
		w[i] = 0.1 + r.Float64()
		sum += w[i]
	}
	for i := range ts {
		ts[i] = task.Task{Period: period, WCET: round(u*w[i]/sum*period, 1e-6)}
	}
	return ts
}

func uniform(r *rand.Rand, lo, hi float64) float64 { return lo + (hi-lo)*r.Float64() }

// strata returns n draws from xs in random order, each element drawn
// equally often up to the remainder, which is drawn at random. Stratified
// draws keep each mix's shares exact, so a mix's cost varies less from
// seed to seed.
func strata[T any](r *rand.Rand, n int, xs []T) []T {
	out := make([]T, 0, n)
	for len(out)+len(xs) <= n {
		out = append(out, xs...)
	}
	for len(out) < n {
		out = append(out, xs[r.Intn(len(xs))])
	}
	r.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// makeSimulateInput builds the serve-simulate mix: n in [3,12], U in
// [0.3,0.9], periods 5–200 ms, a 1000 ms horizon, and one request in
// eight on two partitioned cores.
func makeSimulateInput(seed int64) (*simulateInput, error) {
	r := rand.New(rand.NewSource(seed ^ saltSimulate))
	in := &simulateInput{}
	policies := strata(r, simulateBodies, simulatePolicies)
	execs := strata(r, simulateBodies, execSpecs)
	cores := strata(r, simulateBodies, []int{2, 1, 1, 1, 1, 1, 1, 1})
	for i := 0; i < simulateBodies; i++ {
		req := serve.SimulateRequest{
			Tasks:   randomSet(r, 3+r.Intn(10), uniform(r, 0.3, 0.9), 5, 200),
			Policy:  policies[i],
			Exec:    execs[i],
			Seed:    r.Int63n(1 << 31),
			Horizon: 1000,
		}
		if cores[i] > 1 {
			req.Cores, req.Placement = cores[i], "partitioned-wf"
		}
		if err := checkRequest(&req); err != nil {
			return nil, fmt.Errorf("simulate input %d: %w", i, err)
		}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		in.reqs = append(in.reqs, req)
		in.bodies = append(in.bodies, body)
	}
	return in, nil
}

// makeBatchInput builds the serve-batch mix: per body, 24 frame-set items
// (one shared period, n in [4,16], U in [0.3,0.9]) and 8 global items
// (4 cores, a gang policy, n = 8, U in [1,2.5]) in random order.
func makeBatchInput(seed int64) (*batchInput, error) {
	r := rand.New(rand.NewSource(seed ^ saltBatch))
	in := &batchInput{}
	const frames, globals = batchItems * 3 / 4, batchItems / 4
	for b := 0; b < batchBodies; b++ {
		items := make([]serve.SimulateRequest, batchItems)
		global := r.Perm(batchItems)[:globals]
		isGlobal := make([]bool, batchItems)
		for _, g := range global {
			isGlobal[g] = true
		}
		framePolicies, frameExecs := strata(r, frames, simulatePolicies), strata(r, frames, execSpecs)
		gangs, gangExecs := strata(r, globals, gangPolicies), strata(r, globals, execSpecs)
		for i := range items {
			if isGlobal[i] {
				items[i] = serve.SimulateRequest{
					Tasks:     randomSet(r, 8, uniform(r, 1, 2.5), 5, 200),
					Policy:    gangs[0],
					Exec:      gangExecs[0],
					Seed:      r.Int63n(1 << 31),
					Horizon:   1000,
					Cores:     4,
					Placement: "global",
				}
				gangs, gangExecs = gangs[1:], gangExecs[1:]
			} else {
				items[i] = serve.SimulateRequest{
					Tasks:   frameSet(r, 4+r.Intn(13), uniform(r, 0.3, 0.9), framePeriods[r.Intn(len(framePeriods))]),
					Policy:  framePolicies[0],
					Exec:    frameExecs[0],
					Seed:    r.Int63n(1 << 31),
					Horizon: 1000,
				}
				framePolicies, frameExecs = framePolicies[1:], frameExecs[1:]
			}
			if err := checkRequest(&items[i]); err != nil {
				return nil, fmt.Errorf("batch input %d item %d: %w", b, i, err)
			}
		}
		req := serve.SimulateBatchRequest{Items: items}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		in.reqs = append(in.reqs, req)
		in.bodies = append(in.bodies, body)
	}
	return in, nil
}

// checkRequest rejects a generated request the server would refuse, so
// every workload operation is expected to succeed.
func checkRequest(req *serve.SimulateRequest) error {
	if req.Multi() {
		_, err := req.MultiConfig()
		return err
	}
	_, err := req.Config()
	return err
}

// fig9Config is panel k of a run's Figure 9 n=10 panels: machine 0, full
// WCET, the paper's 20 utilization points, 16 sets each, all six
// policies. Panels differ only in their generator seed.
func fig9Config(seed int64, k int) experiment.Config {
	return experiment.Config{
		NTasks:  fig9Tasks,
		Machine: machine.Machine0(),
		Exec:    experiment.WCETExec(),
		Sets:    fig9Sets,
		Seed:    seed*fig9MaxPanels + int64(k),
		Workers: runtime.GOMAXPROCS(0),
	}
}

// makeKernelInput builds the rtos-kernel workload: 8 periodic tasks with
// periods of 8–100 ms and a total utilization of 0.6, per-invocation work
// of 40–100% of WCET, and Poisson aperiodic arrivals for a deferrable
// server over simSec simulated seconds. The periods sit within 5% of a
// log-spaced grid, so the kernel's work per simulated second, and with it
// the unit's cost, varies little from seed to seed.
func makeKernelInput(seed int64, simSec float64) (*kernelInput, error) {
	const u = 0.6
	r := rand.New(rand.NewSource(seed ^ saltKernel))
	in := &kernelInput{horizon: simSec * 1000}
	w := make([]float64, kernelTasks)
	var sum float64
	for i := range w {
		w[i] = uniform(r, 0.8, 1.2)
		sum += w[i]
	}
	for i := 0; i < kernelTasks; i++ {
		grid := 8 * math.Pow(100.0/8, float64(i)/(kernelTasks-1))
		p := round(min(100, max(8, grid*uniform(r, 0.95, 1.05))), 0.001)
		in.tasks = append(in.tasks, task.Task{Period: p, WCET: round(u*w[i]/sum*p, 1e-6)})
	}
	for i := range in.tasks {
		in.tasks[i].Name = fmt.Sprintf("T%d", i+1)
		fr := make([]float64, 512)
		for j := range fr {
			fr[j] = uniform(r, 0.4, 1)
		}
		in.work = append(in.work, fr)
	}
	aw := rtos.AperiodicWorkload{MeanInterarrival: 40, MeanCycles: 1.5, Rand: rand.New(rand.NewSource(r.Int63()))}
	arr, err := aw.Generate(in.horizon)
	if err != nil {
		return nil, err
	}
	in.arrivals = arr
	return in, nil
}
