package main

import (
	"context"
	"fmt"
	"sort"
	"time"

	"rtdvs/internal/core"
	"rtdvs/internal/machine"
	"rtdvs/internal/rtos"
)

const (
	// kernelWarmSimSec is the simulated length of the set-up warm-up run.
	kernelWarmSimSec = 300
	// kernelTraceSimSec is the simulated length of a traced unit and of
	// the rtos ladder runs; a traced run records a span per submission,
	// so it is kept shorter than the timed runs.
	kernelTraceSimSec = 200
)

// kernelSystem runs the section 4 prototype path: an rtos.Kernel on the
// K6-2+ laptop with its switch halts and ccEDF, fed aperiodic work through
// a deferrable server by rtos.Replay.
type kernelSystem struct {
	seed        int64
	in          *kernelInput
	traceDigest string
}

func newKernelSystem(seed int64) (*kernelSystem, error) {
	in, err := makeKernelInput(seed, kernelSimSec)
	if err != nil {
		return nil, err
	}
	return &kernelSystem{seed: seed, in: in}, nil
}

// buildKernel registers the periodic tasks and a DeferrableServer(50, 5)
// on a fresh kernel.
func buildKernel(in *kernelInput) (*rtos.Kernel, *rtos.DeferrableServer, error) {
	p, err := core.ExtendedByName("ccEDF")
	if err != nil {
		return nil, nil, err
	}
	k, err := rtos.NewKernel(machine.LaptopK62(), machine.K62SwitchOverhead, p)
	if err != nil {
		return nil, nil, err
	}
	for i, t := range in.tasks {
		fr, wcet := in.work[i], t.WCET
		cfg := rtos.TaskConfig{Name: t.Name, Period: t.Period, WCET: wcet,
			Work: func(inv int) float64 { return wcet * fr[inv%len(fr)] }}
		if _, err := k.AddTask(cfg, rtos.AddOptions{Immediate: true}); err != nil {
			return nil, nil, fmt.Errorf("adding %s: %w", t.Name, err)
		}
	}
	ds, err := rtos.NewDeferrableServer(k, "ds", 50, 5)
	if err != nil {
		return nil, nil, err
	}
	return k, ds, nil
}

// arrivalsUntil returns the arrivals before horizon ms.
func arrivalsUntil(arr []rtos.Arrival, horizon float64) []rtos.Arrival {
	return arr[:sort.Search(len(arr), func(i int) bool { return arr[i].Time >= horizon })]
}

// kernelOutcome is everything a kernel run reports; its digest pins the
// run's result.
type kernelOutcome struct {
	Tasks        []rtos.TaskStatus
	Energy       float64
	Busy         float64
	Idle         float64
	Halt         float64
	Switches     int
	Denied       int
	Misses       int
	Completed    int
	MeanResponse float64
}

func outcomeOf(k *rtos.Kernel, ds *rtos.DeferrableServer, meanResponse float64) kernelOutcome {
	cpu := k.CPU()
	return kernelOutcome{
		Tasks: k.Tasks(), Energy: cpu.Energy(), Busy: cpu.BusyTime(), Idle: cpu.IdleTime(), Halt: cpu.HaltTime(),
		Switches: cpu.Switches(), Denied: cpu.Denied(), Misses: len(k.Misses()),
		Completed: len(ds.Completed()), MeanResponse: meanResponse,
	}
}

// submitSink times the server's Submit calls and records each as a span.
type submitSink struct {
	rtos.JobSink
	tr     *tracer
	parent int
	req    int64
	n      int
	total  time.Duration
}

func (s *submitSink) Submit(name string, cycles float64) (*rtos.Job, error) {
	id := s.tr.begin("rtos.Submit", s.parent, s.req)
	t0 := time.Now()
	j, err := s.JobSink.Submit(name, cycles)
	s.total += time.Since(t0)
	s.n++
	s.tr.end(id)
	return j, err
}

// replay runs the kernel workload for simSec simulated seconds. With a
// tracer it records a "rtos.Replay" span with one "rtos.Submit" child per
// arrival; with a tracer or timeSubmits it returns the submission timings.
func (s *kernelSystem) replay(simSec float64, tr *tracer, req int64, timeSubmits bool) (kernelOutcome, *submitSink, error) {
	k, ds, err := buildKernel(s.in)
	if err != nil {
		return kernelOutcome{}, nil, err
	}
	h := simSec * 1000
	id := tr.begin("rtos.Replay", 0, req)
	var sink rtos.JobSink = ds
	var timed *submitSink
	if tr != nil || timeSubmits {
		timed = &submitSink{JobSink: ds, tr: tr, parent: id, req: req}
		sink = timed
	}
	mean, err := rtos.Replay(k, sink, arrivalsUntil(s.in.arrivals, h), h)
	tr.end(id)
	if err != nil {
		return kernelOutcome{}, nil, err
	}
	return outcomeOf(k, ds, mean), timed, nil
}

func (s *kernelSystem) setUp(ctx context.Context, _ *tracer) error {
	_, _, err := s.replay(kernelWarmSimSec, nil, 0, false)
	return err
}

func (s *kernelSystem) measure(ctx context.Context, d time.Duration) (*measurement, error) {
	m := &measurement{}
	var digests []string
	var switches int
	var resp float64
	u0 := readUsage()
	start := time.Now()
	for len(m.unitMS) == 0 || time.Since(start) < d {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		t0 := time.Now()
		out, _, err := s.replay(kernelSimSec, nil, 0, false)
		el := time.Since(t0)
		m.attempted++
		if err != nil {
			return nil, fmt.Errorf("kernel run: %w", err)
		}
		dg, err := digest(out)
		if err != nil {
			return nil, fmt.Errorf("kernel digest: %w", err)
		}
		digests = append(digests, dg)
		switches, resp = out.Switches, out.MeanResponse
		m.unitMS = append(m.unitMS, ms(el)/kernelSimSec)
	}
	m.cpu = readUsage().cpu - u0.cpu
	m.units = float64(len(m.unitMS) * kernelSimSec)
	golden, err := goldenDigests("rtos-kernel", s.seed)
	if err != nil {
		return nil, err
	}
	// Every run replays the same inputs: all must match the golden digest
	// where one is committed, else the first run's.
	want := digests[0]
	if len(golden) > 0 {
		want = golden[0]
	}
	checkDigests(m, digests, func(int) string { return want })
	m.details = append(m.details,
		detail{"kernel_ms_per_sim_s", median(m.unitMS), "ms/s", len(m.unitMS)},
		detail{"kernel_switches_per_sim_s", float64(switches) / kernelSimSec, "1/s", 1},
		detail{"kernel_aperiodic_response_ms", resp, "ms", 1},
	)
	return m, nil
}

// unit is one traced-length run; its digest must repeat run after run.
func (s *kernelSystem) unit(ctx context.Context, tr *tracer, req int64) (time.Duration, error) {
	t0 := time.Now()
	out, _, err := s.replay(kernelTraceSimSec, tr, req, false)
	el := time.Since(t0)
	if err != nil {
		return el, err
	}
	dg, err := digest(out)
	if err != nil {
		return el, err
	}
	if s.traceDigest == "" {
		s.traceDigest = dg
	}
	if dg != s.traceDigest {
		return el, mismatchf("kernel run digest %s, earlier runs %s", dg, s.traceDigest)
	}
	return el, nil
}

// ladder splits a simulated second into kernel stepping and server
// submissions, and estimates the policy's share of the stepping.
func (s *kernelSystem) ladder(m map[string]float64, unitUS float64) []rung {
	const sec = "simulated second (rtos.Replay, traced)"
	arrivals := float64(len(arrivalsUntil(s.in.arrivals, kernelTraceSimSec*1000))) / kernelTraceSimSec
	jobs := 1000.0 / 50 // server releases
	for _, t := range s.in.tasks {
		jobs += 1000 / t.Period
	}
	return []rung{
		{sec, "", unitUS / kernelTraceSimSec},
		{"rtos.Step (Replay minus Submit)", sec, m["rtos.step_ms_per_sim_s"] * 1000},
		{"≈ jobs × 3 ccEDF hooks", "rtos.Step (Replay minus Submit)", jobs * 3 * m["core.hook_ns.ccEDF"] / 1000},
		{"rtos.Submit × arrivals", sec, m["rtos.submit_us"] * arrivals},
	}
}

func (s *kernelSystem) close() error { return nil }
