package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"time"

	"rtdvs/internal/core"
	"rtdvs/internal/experiment"
	"rtdvs/internal/machine"
	"rtdvs/internal/sched"
	"rtdvs/internal/serve"
	"rtdvs/internal/sim"
	"rtdvs/internal/task"
)

// ladderResult holds the per-layer metrics and the checks made while
// measuring them.
type ladderResult struct {
	m          map[string]float64
	attempted  int
	mismatched int
	notes      []string
}

func (lr *ladderResult) mismatch(format string, args ...any) {
	lr.mismatched++
	lr.notes = append(lr.notes, "ladder MISMATCH: "+fmt.Sprintf(format, args...))
}

// measureLadder times every layer's public entry points on the seed's
// inputs of all four workloads, so each traced run reports the whole
// ladder. Each rung is one span in tr.
func measureLadder(ctx context.Context, seed int64, tr *tracer) (*ladderResult, error) {
	simIn, err := makeSimulateInput(seed)
	if err != nil {
		return nil, err
	}
	batchIn, err := makeBatchInput(seed)
	if err != nil {
		return nil, err
	}
	// A quarter of the batch bodies (512 items) keeps the batch rungs to
	// a few seconds.
	batchIn.reqs, batchIn.bodies = batchIn.reqs[:batchBodies/4], batchIn.bodies[:batchBodies/4]
	fig9 := fig9Sets64(seed)
	lr := &ladderResult{m: map[string]float64{}}
	rungs := []struct {
		name string
		run  func() error
	}{
		{"serve.simulate", func() error { return lr.serveSimulate(ctx, simIn) }},
		{"serve.batch", func() error { return lr.serveBatch(ctx, batchIn) }},
		{"experiment", func() error { return lr.experiment(ctx, seed) }},
		{"task", func() error { return lr.task(seed) }},
		{"sim", func() error { return lr.sim(simIn, batchIn, fig9) }},
		{"core", func() error { return lr.core(simIn, batchIn) }},
		{"sched", func() error { return lr.sched(simIn, fig9) }},
		{"rtos", func() error { return lr.rtos(seed) }},
	}
	for _, r := range rungs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		id := tr.begin("ladder."+r.name, 0, 0)
		err := r.run()
		tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("ladder %s: %w", r.name, err)
		}
	}
	return lr, nil
}

// decodeStrict decodes a request body the way the server does: unknown
// fields and trailing data are errors.
func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return errors.New("trailing data after JSON body")
	}
	return nil
}

// stageTimes accumulates the four in-process serve stages.
type stageTimes struct {
	decode, validate, run, encode time.Duration
	n                             int
}

// record stores the per-request stage means and the transport time
// under metric suffix sfx.
func (st *stageTimes) record(m map[string]float64, sfx string, transportUS float64) {
	n := float64(st.n)
	m["serve.decode_us."+sfx] = us(st.decode) / n
	m["serve.validate_us."+sfx] = us(st.validate) / n
	m["serve.run_us."+sfx] = us(st.run) / n
	m["serve.encode_us."+sfx] = us(st.encode) / n
	m["serve.transport_us."+sfx] = transportUS
}

// stagePasses is how many times each serve rung walks its bodies.
const stagePasses = 2

// serveSimulate times the simulate handler's stages in process: strict
// decode, Config/MultiConfig, sim.RunContext/RunMultiContext, and JSON
// encoding. The transport rung is the part of a live server's
// single-connection latency spent outside the handler, over the same
// bodies: net/http, the mux, middleware and admission.
func (lr *ladderResult) serveSimulate(ctx context.Context, in *simulateInput) error {
	var st stageTimes
	want := make([][]byte, len(in.bodies))
	var buf bytes.Buffer
	for pass := 0; pass < stagePasses; pass++ {
		for i, body := range in.bodies {
			var req serve.SimulateRequest
			t0 := time.Now()
			if err := decodeStrict(body, &req); err != nil {
				return err
			}
			t1 := time.Now()
			var res any
			var t2 time.Time
			if req.Multi() {
				cfg, err := req.MultiConfig()
				if err != nil {
					return err
				}
				t2 = time.Now()
				if res, err = sim.RunMultiContext(ctx, cfg); err != nil {
					return err
				}
			} else {
				cfg, err := req.Config()
				if err != nil {
					return err
				}
				t2 = time.Now()
				if res, err = sim.RunContext(ctx, cfg); err != nil {
					return err
				}
			}
			t3 := time.Now()
			buf.Reset()
			if err := json.NewEncoder(&buf).Encode(res); err != nil {
				return err
			}
			t4 := time.Now()
			st.decode += t1.Sub(t0)
			st.validate += t2.Sub(t1)
			st.run += t3.Sub(t2)
			st.encode += t4.Sub(t3)
			st.n++
			lr.attempted++
			if pass == 0 {
				want[i] = bytes.Clone(buf.Bytes())
			} else if !bytes.Equal(buf.Bytes(), want[i]) {
				lr.mismatch("simulate body %d gave a different result on pass %d", i, pass)
			}
		}
	}
	transport, err := lr.transport(ctx, "/v1/simulate", in.bodies, want)
	if err != nil {
		return err
	}
	st.record(lr.m, "simulate", transport)
	return nil
}

// serveBatch times the batch handler's stages in process, the way the
// handler calls them: strict decode, per-item validation, one reused
// BatchRunner's RunContext and RunMultiContext with the results cloned
// into the response, and JSON encoding.
func (lr *ladderResult) serveBatch(ctx context.Context, in *batchInput) error {
	var st stageTimes
	want := make([][]byte, len(in.bodies))
	br := sim.NewBatchRunner()
	var buf bytes.Buffer
	for pass := 0; pass < stagePasses; pass++ {
		for i, body := range in.bodies {
			var req serve.SimulateBatchRequest
			t0 := time.Now()
			if err := decodeStrict(body, &req); err != nil {
				return err
			}
			t1 := time.Now()
			resp := serve.SimulateBatchResponse{Items: make([]serve.SimulateBatchItem, len(req.Items))}
			var cfgs []sim.Config
			var mcfgs []sim.MultiConfig
			var laneItem, multiItem []int
			for j := range req.Items {
				if req.Items[j].Multi() {
					c, err := req.Items[j].MultiConfig()
					if err != nil {
						return err
					}
					mcfgs, multiItem = append(mcfgs, c), append(multiItem, j)
					continue
				}
				c, err := req.Items[j].Config()
				if err != nil {
					return err
				}
				cfgs, laneItem = append(cfgs, c), append(laneItem, j)
			}
			t2 := time.Now()
			results, errs := br.RunContext(ctx, cfgs)
			for li, j := range laneItem {
				if errs[li] != nil {
					return errs[li]
				}
				resp.Items[j].Result = results[li].Clone()
			}
			mres, merrs := br.RunMultiContext(ctx, mcfgs)
			for li, j := range multiItem {
				if merrs[li] != nil {
					return merrs[li]
				}
				resp.Items[j].Multi = mres[li].Clone()
			}
			t3 := time.Now()
			buf.Reset()
			if err := json.NewEncoder(&buf).Encode(resp); err != nil {
				return err
			}
			t4 := time.Now()
			st.decode += t1.Sub(t0)
			st.validate += t2.Sub(t1)
			st.run += t3.Sub(t2)
			st.encode += t4.Sub(t3)
			st.n++
			lr.attempted++
			if pass == 0 {
				want[i] = bytes.Clone(buf.Bytes())
			} else if !bytes.Equal(buf.Bytes(), want[i]) {
				lr.mismatch("batch body %d gave a different result on pass %d", i, pass)
			}
		}
	}
	transport, err := lr.transport(ctx, "/v1/simulate:batch", in.bodies, want)
	if err != nil {
		return err
	}
	st.record(lr.m, "batch", transport)
	return nil
}

// transport posts every body over one connection to a fresh live
// server, stagePasses times, and checks each answer against want. Each
// request is a client span with the handler's span under it; it returns
// the mean self time of the client spans in µs.
func (lr *ladderResult) transport(ctx context.Context, path string, bodies, want [][]byte) (float64, error) {
	tr := newTracer()
	live, err := startServer(tr)
	if err != nil {
		return 0, err
	}
	c := newClient()
	defer func() {
		c.CloseIdleConnections()
		_ = live.close() // the measurement is complete; a drain error changes nothing
	}()
	var buf bytes.Buffer
	var req int64
	for pass := 0; pass < stagePasses; pass++ {
		for i, body := range bodies {
			req++
			code, err := post(ctx, c, live.base+path, body, &buf, tr, "serve.request", req)
			lr.attempted++
			if err != nil {
				return 0, err
			}
			if code != http.StatusOK {
				return 0, fmt.Errorf("%s: HTTP %d: %.200s", path, code, buf.Bytes())
			}
			if !bytes.Equal(buf.Bytes(), want[i]) {
				lr.mismatch("%s body %d: the server's answer differs from the in-process stages", path, i)
			}
		}
	}
	for _, sm := range summarize(tr.snapshot()) {
		if sm.Name == "serve.request" {
			return us(sm.Self) / float64(sm.Count), nil
		}
	}
	return 0, errors.New("no request spans recorded")
}

// fig9Lanes are Figure 9-like configurations: n=10 sets from the paper's
// generator over the whole utilization axis, one per policy in turn.
type fig9Lanes struct {
	sets []*task.Set
	cfgs []sim.Config
}

// fig9Sets64 builds 64 lanes, the batch width the harness chunks reach.
func fig9Sets64(seed int64) *fig9Lanes {
	r := rand.New(rand.NewSource(seed ^ saltLadder))
	points := experiment.DefaultUtilizations()
	names := core.Names()
	fl := &fig9Lanes{}
	spec := machine.Machine0()
	for k := 0; len(fl.cfgs) < 64; k++ {
		g := task.Generator{N: fig9Tasks, Utilization: points[k%len(points)], Rand: r}
		ts, err := g.Generate()
		if err != nil {
			continue // the generator rejects only impossible targets
		}
		p, err := core.ByName(names[k%len(names)])
		if err != nil {
			panic(err) // core.Names and core.ByName agree
		}
		fl.sets = append(fl.sets, ts)
		fl.cfgs = append(fl.cfgs, sim.Config{Tasks: ts, Machine: spec, Policy: p, Exec: task.FullWCET{}, Horizon: 10 * ts.MaxPeriod()})
	}
	return fl
}

// experiment times the harness on the Figure 9 panel: the whole panel
// through RunContext, its jobs in harness-sized chunks and one by one
// through RunJobs, and the fold.
func (lr *ladderResult) experiment(ctx context.Context, seed int64) error {
	cfg := fig9Config(seed, 0)
	t0 := time.Now()
	sw, err := experiment.RunContext(ctx, cfg)
	if err != nil {
		return err
	}
	panel := time.Since(t0)
	lr.attempted++

	nJobs, err := experiment.NumJobs(cfg)
	if err != nil {
		return err
	}
	const chunkJobs = 10 // the harness chunk for six policies: 60 lanes
	var results []experiment.JobResult
	var chunkTotal time.Duration
	chunks := 0
	for lo := 0; lo < nJobs; lo += chunkJobs {
		var jobs []int
		for j := lo; j < min(lo+chunkJobs, nJobs); j++ {
			jobs = append(jobs, j)
		}
		t := time.Now()
		rs, err := experiment.RunJobs(ctx, cfg, jobs)
		if err != nil {
			return err
		}
		chunkTotal += time.Since(t)
		chunks++
		results = append(results, rs...)
	}
	const folds = 5
	var foldT time.Duration
	var folded *experiment.Sweep
	for i := 0; i < folds; i++ {
		t := time.Now()
		if folded, err = experiment.FoldJobs(cfg, results); err != nil {
			return err
		}
		foldT += time.Since(t)
	}
	a, err := digest(sw)
	if err != nil {
		return err
	}
	b, err := digest(folded)
	if err != nil {
		return err
	}
	if a != b {
		lr.mismatch("FoldJobs over RunJobs chunks differs from RunContext on the Figure 9 panel")
	}

	// Single jobs: every utilization point, every other set.
	var jobMS []float64
	for j := 0; j < nJobs; j += 2 {
		t := time.Now()
		if _, err := experiment.RunJobs(ctx, cfg, []int{j}); err != nil {
			return err
		}
		jobMS = append(jobMS, ms(time.Since(t)))
	}
	lr.m["experiment.job_ms.p50"] = percentile(jobMS, 50)
	lr.m["experiment.job_ms.p90"] = percentile(jobMS, 90)
	lr.m["experiment.chunk_ms"] = ms(chunkTotal) / float64(chunks)
	lr.m["experiment.pool_busy_ratio"] = chunkTotal.Seconds() / (float64(cfg.Workers) * panel.Seconds())
	lr.m["experiment.fold_ms"] = ms(foldT) / folds
	return nil
}

// betaDraws is how many per-invocation draws the beta rung times.
const betaDraws = 4096

// task times the generator and the policy attaches over the Figure 9
// panel's shape, and the per-invocation draw of the beta=2,5 execution
// model that the serve mixes use.
func (lr *ladderResult) task(seed int64) error {
	r := rand.New(rand.NewSource(seed ^ saltLadder))
	var gen, att time.Duration
	var sets []*task.Set
	for _, u := range experiment.DefaultUtilizations() {
		for si := 0; si < fig9Sets; si++ {
			g := task.Generator{N: fig9Tasks, Utilization: u, Rand: r}
			t := time.Now()
			ts, err := g.Generate()
			gen += time.Since(t)
			if err != nil {
				return err
			}
			sets = append(sets, ts)
		}
	}
	spec := machine.Machine0()
	for _, name := range core.Names() {
		p, err := core.ByName(name)
		if err != nil {
			return err
		}
		t := time.Now()
		for _, ts := range sets {
			if err := p.Attach(ts, spec); err != nil {
				return err
			}
		}
		att += time.Since(t)
	}
	lr.m["task.generate_us"] = us(gen) / float64(len(sets))
	lr.m["core.attach_us"] = us(att) / float64(len(sets)*len(core.Names()))

	exec, err := task.ParseExec("beta=2,5", seed)
	if err != nil {
		return err
	}
	var sink float64
	t := time.Now()
	for i := 0; i < betaDraws; i++ {
		sink += exec.Cycles(i%16, i/16, 10)
	}
	lr.m["task.beta_draw_us"] = us(time.Since(t)) / betaDraws
	if !(sink > 0) {
		return errors.New("beta draws summed to zero")
	}
	return nil
}

// engineTimes accumulates engine runs.
type engineTimes struct {
	t      time.Duration
	runs   int
	events int
}

func (e *engineTimes) runUS() float64      { return us(e.t) / float64(e.runs) }
func (e *engineTimes) nsPerEvent() float64 { return float64(e.t) / float64(e.events) }

// sim times the engines directly: the scalar Runner on the simulate
// configurations, the BatchRunner on the batch frame items and on 64
// Figure 9 lanes (each against the scalar Runner on identical
// configurations), and the MultiRunner on the global items.
func (lr *ladderResult) sim(simIn *simulateInput, batchIn *batchInput, fig9 *fig9Lanes) error {
	runner := sim.NewRunner()
	var scalar engineTimes
	for pass := 0; pass < stagePasses; pass++ {
		for i := range simIn.reqs {
			if simIn.reqs[i].Multi() {
				continue
			}
			cfg, err := simIn.reqs[i].Config()
			if err != nil {
				return err
			}
			t := time.Now()
			res, err := runner.Run(cfg)
			if err != nil {
				return err
			}
			scalar.t += time.Since(t)
			scalar.runs++
			scalar.events += res.Events
		}
	}
	lr.m["sim.scalar_run_us"] = scalar.runUS()
	lr.m["sim.scalar_ns_per_event"] = scalar.nsPerEvent()
	lr.m["sim.events_per_run.serve-simulate"] = float64(scalar.events) / float64(scalar.runs)

	// Frame sets, one BatchRunner pass per batch body as the server runs
	// them, and the same configurations on the scalar Runner.
	br := sim.NewBatchRunner()
	var frames, framesScalar engineTimes
	for pass := 0; pass < stagePasses; pass++ {
		for _, req := range batchIn.reqs {
			var cfgs, ref []sim.Config
			for j := range req.Items {
				if req.Items[j].Multi() {
					continue
				}
				a, err := req.Items[j].Config()
				if err != nil {
					return err
				}
				b, err := req.Items[j].Config()
				if err != nil {
					return err
				}
				cfgs, ref = append(cfgs, a), append(ref, b)
			}
			t := time.Now()
			results, errs := br.Run(cfgs)
			frames.t += time.Since(t)
			for li := range cfgs {
				if errs[li] != nil {
					return errs[li]
				}
				frames.runs++
				frames.events += results[li].Events
			}
			if err := timeScalar(runner, ref, &framesScalar); err != nil {
				return err
			}
		}
	}
	lr.m["sim.batch_lane_us.frames"] = frames.runUS()
	lr.m["sim.batch_ns_per_event.frames"] = frames.nsPerEvent()
	lr.m["sim.batch_speedup.frames"] = framesScalar.runUS() / frames.runUS()

	// Figure 9 lanes: full WCET, real-valued periods, no release tables.
	const reps = 3
	var random, randomScalar engineTimes
	for rep := 0; rep < reps; rep++ {
		t := time.Now()
		results, errs := br.Run(fig9.cfgs)
		random.t += time.Since(t)
		for li := range fig9.cfgs {
			if errs[li] != nil {
				return errs[li]
			}
			random.runs++
			random.events += results[li].Events
		}
		if err := timeScalar(runner, fig9.cfgs, &randomScalar); err != nil {
			return err
		}
	}
	lr.m["sim.batch_lane_us.random"] = random.runUS()
	lr.m["sim.batch_ns_per_event.random"] = random.nsPerEvent()
	lr.m["sim.batch_speedup.random"] = randomScalar.runUS() / random.runUS()
	lr.m["sim.events_per_run.fig9-sweep"] = float64(random.events) / float64(random.runs)

	// Global items on the MultiRunner.
	mr := sim.NewMultiRunner()
	var multi engineTimes
	for pass := 0; pass < stagePasses; pass++ {
		for _, req := range batchIn.reqs {
			for j := range req.Items {
				if !req.Items[j].Multi() {
					continue
				}
				cfg, err := req.Items[j].MultiConfig()
				if err != nil {
					return err
				}
				t := time.Now()
				res, err := mr.Run(cfg)
				if err != nil {
					return err
				}
				multi.t += time.Since(t)
				multi.runs++
				multi.events += res.Events
			}
		}
	}
	lr.m["sim.multi_run_us"] = multi.runUS()
	lr.m["sim.multi_ns_per_event"] = multi.nsPerEvent()
	lr.m["sim.events_per_run.serve-batch"] = float64(frames.events+multi.events) / float64(frames.runs+multi.runs)
	return nil
}

// timeScalar runs cfgs one by one on the scalar Runner into e.
func timeScalar(runner *sim.Runner, cfgs []sim.Config, e *engineTimes) error {
	for _, cfg := range cfgs {
		t := time.Now()
		res, err := runner.Run(cfg)
		if err != nil {
			return err
		}
		e.t += time.Since(t)
		e.runs++
		e.events += res.Events
	}
	return nil
}

// hookSystem is the core.System the hook rung drives policies with.
type hookSystem struct {
	now float64
	dl  []float64
}

func (s *hookSystem) Now() float64           { return s.now }
func (s *hookSystem) Deadline(i int) float64 { return s.dl[i] }

// hookEvent is one release in a hook replay.
type hookEvent struct {
	t float64
	i int
}

// hookHorizon and hookFrac shape the hook replay: every release in the
// first second, each job executing 70% of its WCET.
const (
	hookHorizon = 1000.0
	hookFrac    = 0.7
)

// hookNS replays each set's releases in the first hookHorizon ms through
// p's hooks — OnRelease, then OnExecute and OnCompletion for 70% of the
// WCET — and returns the mean time per hook call. The release order is
// computed before timing, so only the hooks and the System reads they
// make are timed.
func hookNS(p core.Policy, sets []*task.Set, spec *machine.Spec) (float64, error) {
	var total time.Duration
	calls := 0
	for _, ts := range sets {
		n := ts.Len()
		var ev []hookEvent
		period := make([]float64, n)
		work := make([]float64, n)
		sys := &hookSystem{dl: make([]float64, n)}
		for i := 0; i < n; i++ {
			t := ts.Task(i)
			period[i], work[i] = t.Period, hookFrac*t.WCET
			sys.dl[i] = t.Phase + t.Period
			for r := t.Phase; r < hookHorizon; r += t.Period {
				ev = append(ev, hookEvent{r, i})
			}
		}
		sort.Slice(ev, func(a, b int) bool {
			if ev[a].t < ev[b].t || ev[a].t > ev[b].t {
				return ev[a].t < ev[b].t
			}
			return ev[a].i < ev[b].i
		})
		if err := p.Attach(ts, spec); err != nil {
			return 0, err
		}
		t0 := time.Now()
		for _, e := range ev {
			sys.now, sys.dl[e.i] = e.t, e.t+period[e.i]
			p.OnRelease(sys, e.i)
			p.OnExecute(e.i, work[e.i])
			p.OnCompletion(sys, e.i, work[e.i])
		}
		total += time.Since(t0)
		calls += 3 * len(ev)
	}
	return float64(total) / float64(calls), nil
}

// meanHookNS is the mean hook cost over the uniprocessor policies.
func meanHookNS(m map[string]float64) float64 {
	var s float64
	for _, p := range simulatePolicies {
		s += m["core.hook_ns."+p]
	}
	return s / float64(len(simulatePolicies))
}

// core times the policies' hooks on the simulate sets (gangLAEDF on the
// batch's global sets, on four cores).
func (lr *ladderResult) core(simIn *simulateInput, batchIn *batchInput) error {
	var sets, global []*task.Set
	for _, req := range simIn.reqs {
		ts, err := task.NewSet(req.Tasks...)
		if err != nil {
			return err
		}
		sets = append(sets, ts)
	}
	for _, req := range batchIn.reqs {
		for _, it := range req.Items {
			if !it.Multi() {
				continue
			}
			ts, err := task.NewSet(it.Tasks...)
			if err != nil {
				return err
			}
			global = append(global, ts)
		}
	}
	spec := machine.Machine0()
	for _, name := range simulatePolicies {
		p, err := core.ExtendedByName(name)
		if err != nil {
			return err
		}
		if lr.m["core.hook_ns."+name], err = hookNS(p, sets, spec); err != nil {
			return err
		}
	}
	p, err := core.ExtendedByName("gangLAEDF")
	if err != nil {
		return err
	}
	lr.m["core.hook_ns.gangLAEDF"], err = hookNS(p, global, spec.WithCores(4))
	return err
}

// queueRounds is how many pop-push rounds each queue rung makes per task.
const queueRounds = 64

// sched times the ready queue at the simulate sets' sizes and the lane
// heaps at 64 lanes of Figure 9 sets, each op a pop or a push of the
// popped task at its next deadline.
func (lr *ladderResult) sched(simIn *simulateInput, fig9 *fig9Lanes) error {
	q := sched.NewReadyQueue()
	var qT time.Duration
	qOps := 0
	for _, req := range simIn.reqs {
		n := len(req.Tasks)
		key := make([]float64, n)
		q.Reset(n)
		for i, t := range req.Tasks {
			key[i] = t.Period
			if err := q.Push(i, key[i]); err != nil {
				return err
			}
		}
		t0 := time.Now()
		for k := 0; k < queueRounds*n; k++ {
			i := q.Pop()
			key[i] += req.Tasks[i].Period
			if err := q.Push(i, key[i]); err != nil {
				return err
			}
		}
		qT += time.Since(t0)
		qOps += 2 * queueRounds * n
	}
	lr.m["sched.readyqueue_op_ns"] = float64(qT) / float64(qOps)

	lanes, stride := len(fig9.sets), fig9Tasks
	h := sched.NewLaneHeaps()
	h.Reset(lanes, stride)
	key := make([]float64, lanes*stride)
	period := make([]float64, lanes*stride)
	for l, ts := range fig9.sets {
		for i := 0; i < ts.Len(); i++ {
			period[l*stride+i] = ts.Task(i).Period
			key[l*stride+i] = ts.Task(i).Period
			if err := h.Push(l, i, key[l*stride+i]); err != nil {
				return err
			}
		}
	}
	t0 := time.Now()
	for k := 0; k < queueRounds*stride; k++ {
		for l := 0; l < lanes; l++ {
			i := h.Pop(l)
			key[l*stride+i] += period[l*stride+i]
			if err := h.Push(l, i, key[l*stride+i]); err != nil {
				return err
			}
		}
	}
	lr.m["sched.laneheaps_op_ns"] = float64(time.Since(t0)) / float64(2*queueRounds*stride*lanes)
	return nil
}

// rtos splits kernelTraceSimSec-long kernel runs into Submit time and the
// rest of Replay, which is Kernel.Step.
func (lr *ladderResult) rtos(seed int64) error {
	ks, err := newKernelSystem(seed)
	if err != nil {
		return err
	}
	const reps = 3
	var total, submit time.Duration
	submits, switches := 0, 0
	for rep := 0; rep < reps; rep++ {
		t0 := time.Now()
		out, sink, err := ks.replay(kernelTraceSimSec, nil, 0, true)
		if err != nil {
			return err
		}
		total += time.Since(t0)
		submit += sink.total
		submits += sink.n
		switches += out.Switches
		lr.attempted++
	}
	simSec := float64(reps * kernelTraceSimSec)
	lr.m["rtos.step_ms_per_sim_s"] = ms(total-submit) / simSec
	lr.m["rtos.submit_us"] = us(submit) / float64(submits)
	lr.m["rtos.switches_per_sim_s"] = float64(switches) / simSec
	return nil
}
