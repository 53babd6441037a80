package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strings"
	"sync"
	"syscall"
	"time"

	"rtdvs/internal/serve"
	"rtdvs/internal/sim"
)

// rates is the serve-simulate ladder of offered loads, req/s. The first
// rung is the end-to-end unit's operating point: light load, but busy
// enough that idle processors rarely park between requests. The mix
// costs about 1 ms of CPU per request on the reference host (the
// beta=2,5 draws dominate), so two cores saturate near 2000 req/s.
var rates = []int{500, 750, 1000, 1250, 1500, 1750, 2000, 2500}

const (
	// ladderFloor is the rate the ladder always runs through; above it
	// the ladder stops after the first failing rung.
	ladderFloor = 1000
	// rungGrace is how long after a rung's last due time an answer still
	// counts as done.
	rungGrace = 100 * time.Millisecond
	// p99LimitMS is the latency limit a passing rung's p99 must meet:
	// about twice the mix's unloaded p99, so a rung fails once queueing
	// doubles the tail.
	p99LimitMS = 10.0
	// lateLimitMS is the generator lateness p99 above which a rung is
	// flagged invalid: its load was not offered as scheduled.
	lateLimitMS = 2.0
)

// dueAt is when request i of a rung offered at rate req/s falls due,
// counted from the rung's start.
func dueAt(i, rate int) time.Duration {
	return time.Duration(int64(i) * int64(time.Second) / int64(rate))
}

// dueBy returns how many of a rung's total requests are due at elapsed:
// the requests i with dueAt(i, rate) <= elapsed.
func dueBy(elapsed time.Duration, rate, total int) int {
	if elapsed < 0 {
		return 0
	}
	sec := int64(time.Second)
	n := int(((int64(elapsed)+1)*int64(rate) + sec - 1) / sec)
	return min(n, total)
}

// sleepUntil blocks the calling thread until at has passed since start.
// It sleeps with nanosleep(2), not time.Sleep: runtime timers wake
// through the network poller, which waits in whole milliseconds on
// Linux, and would add up to 1 ms of lateness to every request.
func sleepUntil(start time.Time, at time.Duration) {
	for {
		d := at - time.Since(start)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		if err := syscall.Nanosleep(&ts, nil); err != nil && !errors.Is(err, syscall.EINTR) {
			time.Sleep(d)
			return
		}
	}
}

// rungResult is one rung of the open-loop ladder. Latencies run from each
// request's due time, so a stall also delays the requests queued behind it.
type rungResult struct {
	rate       int
	offered    int // timed requests
	done       int // timed requests answered correctly within the rung plus grace
	shed       int // 429 answers
	attempted  int
	failed     int // errors, non-2xx answers and mismatches
	mismatched int
	answered   int           // correct answers, warm-up included
	cpu        time.Duration // process CPU over the whole rung
	lat        []float64     // ms, timed requests; +Inf when not done
	late       []float64     // generator lateness, ms, timed requests
}

func (r *rungResult) latP(p float64) float64  { return percentile(r.lat, p) }
func (r *rungResult) lateP(p float64) float64 { return percentile(r.late, p) }

// passes applies the rung rule: p99 within the limit, nothing shed or
// failed, and at least 99% of the offered requests done in time, which
// rules out a backlog that grows through the rung.
func (r *rungResult) passes() bool {
	return r.shed == 0 && r.failed == 0 &&
		float64(r.done) >= 0.99*float64(r.offered) &&
		r.latP(99) <= p99LimitMS
}

// valid reports whether the generator offered the load on schedule.
func (r *rungResult) valid() bool { return r.lateP(99) <= lateLimitMS }

func (r *rungResult) String() string {
	verdict := "FAIL"
	if r.passes() {
		verdict = "PASS"
	}
	if !r.valid() {
		verdict += " INVALID"
	}
	return fmt.Sprintf("rung %d req/s: offered %d done %d shed %d failed %d p50 %.3f ms p99 %.3f ms gen_late_p99 %.3f ms %s",
		r.rate, r.offered, r.done, r.shed, r.failed, r.latP(50), r.latP(99), r.lateP(99), verdict)
}

// maxRate is the highest rate whose rung passed, 0 when none did. A rung
// the generator served late still counts: latency runs from the due
// time, so the lateness only made the rung harder to pass.
func maxRate(rungs []*rungResult) int {
	best := 0
	for _, r := range rungs {
		if r.passes() && r.rate > best {
			best = r.rate
		}
	}
	return best
}

// simulateSystem drives POST /v1/simulate over two connections.
type simulateSystem struct {
	liveClients
	in   *simulateInput
	want [][]byte
	next int
	buf  bytes.Buffer
}

func newSimulateSystem(seed int64) (*simulateSystem, error) {
	in, err := makeSimulateInput(seed)
	if err != nil {
		return nil, err
	}
	s := &simulateSystem{in: in}
	for i := range in.reqs {
		b, err := directSimulate(&in.reqs[i])
		if err != nil {
			return nil, fmt.Errorf("reference for request %d: %w", i, err)
		}
		s.want = append(s.want, b)
	}
	return s, nil
}

// directSimulate is the reference answer: the request's configuration run
// directly on the engine and encoded the way the server encodes it.
func directSimulate(req *serve.SimulateRequest) ([]byte, error) {
	var res any
	if req.Multi() {
		cfg, err := req.MultiConfig()
		if err != nil {
			return nil, err
		}
		if res, err = sim.RunMulti(cfg); err != nil {
			return nil, err
		}
	} else {
		cfg, err := req.Config()
		if err != nil {
			return nil, err
		}
		if res, err = sim.Run(cfg); err != nil {
			return nil, err
		}
	}
	var b bytes.Buffer
	err := json.NewEncoder(&b).Encode(res)
	return b.Bytes(), err
}

// simulateWarmup is the fixed number of requests each set-up sends.
const simulateWarmup = 256

func (s *simulateSystem) setUp(ctx context.Context, tr *tracer) error {
	if err := s.start(tr); err != nil {
		return err
	}
	errs := make([]error, len(s.clients))
	var wg sync.WaitGroup
	for c, cl := range s.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for i := c; i < simulateWarmup; i += len(s.clients) {
				b := i % len(s.in.bodies)
				st, err := post(ctx, cl, s.live.base+"/v1/simulate", s.in.bodies[b], &buf, nil, "", 0)
				if err == nil {
					err = checkAnswer(st, buf.Bytes(), s.want[b])
				}
				if err != nil {
					errs[c] = fmt.Errorf("warm-up request %d: %w", i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// measure runs the rate ladder. The first rung gets 35% of d and the
// others share the rest; each rung starts with a warm-up whose requests
// are sent and checked but not timed.
func (s *simulateSystem) measure(ctx context.Context, d time.Duration) (*measurement, error) {
	others := time.Duration(len(rates) - 1)
	baseWarm, warm := min(500*time.Millisecond, d/10), min(250*time.Millisecond, d/20)
	baseTimed := d * 35 / 100
	timed := max(200*time.Millisecond, (d*65/100-others*warm)/others)

	m := &measurement{}
	var rungs []*rungResult
	for i, rate := range rates {
		w, t := warm, timed
		if i == 0 {
			w, t = baseWarm, baseTimed
		}
		r := s.runRung(ctx, rate, w, t)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rungs = append(rungs, r)
		m.attempted += r.attempted
		m.failed += r.failed
		m.mismatched += r.mismatched
		m.notes = append(m.notes, r.String())
		if !r.passes() && rate >= ladderFloor {
			break
		}
	}
	base := rungs[0]
	m.unitMS = base.lat
	m.cpu = base.cpu
	m.units = float64(base.answered)
	m.details = append(m.details, detail{"simulate_p50_ms", base.latP(50), "ms", len(base.lat)})
	if hasPercentile(len(base.lat), 99) {
		m.details = append(m.details, detail{"simulate_p99_ms", base.latP(99), "ms", len(base.lat)})
	}
	for _, r := range rungs {
		if r.rate == ladderFloor && hasPercentile(len(r.lat), 99) {
			m.details = append(m.details, detail{"simulate_p99_ms_1k", r.latP(99), "ms", len(r.lat)})
		}
	}
	m.details = append(m.details,
		detail{"simulate_max_rps", float64(maxRate(rungs)), "req/s", len(rungs)},
		detail{"bench.gen_late_p99_ms", base.lateP(99), "ms", len(base.late)},
	)
	return m, nil
}

// runRung offers rate req/s for warm+timed. The generator wakes at the
// absolute due time of the next request and hands every request due by
// then to the two connections, so a late wake-up delays requests but
// never shifts the schedule.
func (s *simulateSystem) runRung(ctx context.Context, rate int, warm, timed time.Duration) *rungResult {
	nWarm := int(warm.Seconds() * float64(rate))
	total := nWarm + max(1, int(timed.Seconds()*float64(rate)))
	cutoff := dueAt(total, rate) + rungGrace
	url := s.live.base + "/v1/simulate"
	first := s.next
	s.next += total

	const (
		notSent = iota
		skipped
		okDone
		okLate
		shed
		failed
		mismatched
	)
	outcome := make([]int8, total)
	answeredAt := make([]time.Duration, total)
	sentAt := make([]time.Duration, total)
	jobs := make(chan int, total) // sized to the number of sends: the generator never blocks

	u0 := readUsage()
	start := time.Now()
	var wg sync.WaitGroup
	for _, cl := range s.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for i := range jobs {
				if time.Since(start) > cutoff {
					outcome[i] = skipped
					continue
				}
				b := (first + i) % len(s.in.bodies)
				st, err := post(ctx, cl, url, s.in.bodies[b], &buf, nil, "", 0)
				at := time.Since(start)
				if err == nil {
					err = checkAnswer(st, buf.Bytes(), s.want[b])
				}
				switch {
				case st == http.StatusTooManyRequests:
					outcome[i] = shed
				case errors.Is(err, errMismatch):
					outcome[i] = mismatched
				case err != nil:
					outcome[i] = failed
				case at <= cutoff:
					outcome[i], answeredAt[i] = okDone, at
				default:
					outcome[i] = okLate
				}
			}
		}()
	}
	for sent := 0; sent < total && ctx.Err() == nil; {
		sleepUntil(start, dueAt(sent, rate))
		el := time.Since(start)
		n := dueBy(el, rate, total)
		for i := sent; i < n; i++ {
			sentAt[i] = el
			jobs <- i
		}
		sent = n
	}
	close(jobs)
	wg.Wait()

	r := &rungResult{rate: rate, offered: total - nWarm, cpu: readUsage().cpu - u0.cpu}
	for i, o := range outcome {
		if o != notSent && o != skipped {
			r.attempted++
		}
		switch o {
		case okDone, okLate:
			r.answered++
		case shed:
			r.shed++
			r.failed++
		case failed:
			r.failed++
		case mismatched:
			r.mismatched++
			r.failed++
		}
		if i < nWarm {
			continue
		}
		r.late = append(r.late, ms(sentAt[i]-dueAt(i, rate)))
		if o == okDone {
			r.done++
			r.lat = append(r.lat, ms(answeredAt[i]-dueAt(i, rate)))
		} else {
			r.lat = append(r.lat, math.Inf(1))
		}
	}
	return r
}

func (s *simulateSystem) unit(ctx context.Context, tr *tracer, req int64) (time.Duration, error) {
	b := s.next % len(s.in.bodies)
	s.next++
	t0 := time.Now()
	st, err := post(ctx, s.clients[0], s.live.base+"/v1/simulate", s.in.bodies[b], &s.buf, tr, "serve.request", req)
	el := time.Since(t0)
	if err != nil {
		return el, err
	}
	return el, checkAnswer(st, s.buf.Bytes(), s.want[b])
}

// ladder splits a single-connection request into the serve stages, and
// the run stage into the engine and its per-event costs.
func (s *simulateSystem) ladder(m map[string]float64, unitUS float64) []rung {
	const req = "request (single connection)"
	stages := []string{"serve.transport_us.simulate", "serve.decode_us.simulate", "serve.validate_us.simulate", "serve.run_us.simulate", "serve.encode_us.simulate"}
	var total float64
	for _, st := range stages {
		total += m[st]
	}
	rows := []rung{{req, "", total}}
	for _, st := range stages {
		rows = append(rows, rung{st, req, m[st]})
	}
	const run = "sim.scalar_run_us (reused Runner)"
	events := m["sim.events_per_run.serve-simulate"]
	var draws, scalar float64
	for i := range s.in.reqs {
		if !s.in.reqs[i].Multi() {
			draws += betaJobs(&s.in.reqs[i])
			scalar++
		}
	}
	return append(rows,
		rung{run, "serve.run_us.simulate", m["sim.scalar_run_us"]},
		rung{"≈ beta jobs × task.beta_draw", run, draws / scalar * m["task.beta_draw_us"]},
		rung{"≈ events × sched.readyqueue op", run, events * m["sched.readyqueue_op_ns"] / 1000},
		rung{"≈ events × core hook (mean)", run, events * meanHookNS(m) / 1000},
	)
}

// betaJobs is the number of jobs a request releases in its horizon when
// it draws its execution times from the beta model, else 0. Each job
// takes one draw.
func betaJobs(req *serve.SimulateRequest) float64 {
	if !strings.HasPrefix(req.Exec, "beta=") {
		return 0
	}
	var n float64
	for _, t := range req.Tasks {
		n += math.Ceil(req.Horizon / t.Period)
	}
	return n
}
