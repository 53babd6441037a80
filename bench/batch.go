package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"rtdvs/internal/serve"
	"rtdvs/internal/sim"
)

// batchWarmup is the fixed number of batch requests each set-up sends.
const batchWarmup = 16

// batchSystem drives POST /v1/simulate:batch from two closed-loop
// clients: each sends its next batch as soon as the previous answer is in.
type batchSystem struct {
	liveClients
	in   *batchInput
	want [][]byte
	next atomic.Int64
	buf  bytes.Buffer
}

func newBatchSystem(seed int64) (*batchSystem, error) {
	in, err := makeBatchInput(seed)
	if err != nil {
		return nil, err
	}
	s := &batchSystem{in: in}
	runner, multi := sim.NewRunner(), sim.NewMultiRunner()
	for i := range in.reqs {
		b, err := directBatch(runner, multi, &in.reqs[i])
		if err != nil {
			return nil, fmt.Errorf("reference for batch %d: %w", i, err)
		}
		s.want = append(s.want, b)
	}
	return s, nil
}

// directBatch is the reference answer of a batch: every item run on the
// scalar Runner or the MultiRunner, the engines the batch lanes must
// match, and encoded the way the server encodes the batch response.
func directBatch(runner *sim.Runner, multi *sim.MultiRunner, req *serve.SimulateBatchRequest) ([]byte, error) {
	resp := serve.SimulateBatchResponse{Items: make([]serve.SimulateBatchItem, len(req.Items))}
	for i := range req.Items {
		it := &req.Items[i]
		if it.Multi() {
			cfg, err := it.MultiConfig()
			if err != nil {
				return nil, err
			}
			res, err := multi.Run(cfg)
			if err != nil {
				return nil, err
			}
			resp.Items[i].Multi = res.Clone()
			continue
		}
		cfg, err := it.Config()
		if err != nil {
			return nil, err
		}
		res, err := runner.Run(cfg)
		if err != nil {
			return nil, err
		}
		resp.Items[i].Result = res.Clone()
	}
	var b bytes.Buffer
	err := json.NewEncoder(&b).Encode(resp)
	return b.Bytes(), err
}

func (s *batchSystem) url() string { return s.live.base + "/v1/simulate:batch" }

// nextBody returns the next batch body and its reference answer.
func (s *batchSystem) nextBody() ([]byte, []byte) {
	b := int(s.next.Add(1)-1) % len(s.in.bodies)
	return s.in.bodies[b], s.want[b]
}

func (s *batchSystem) setUp(ctx context.Context, tr *tracer) error {
	if err := s.start(tr); err != nil {
		return err
	}
	st, err := s.loop(ctx, func(n int, _ time.Duration) bool { return n < batchWarmup/len(s.clients) })
	if err == nil && st.failed > 0 {
		err = fmt.Errorf("%d of %d warm-up batches failed", st.failed, st.attempted)
	}
	return err
}

// loopStats is what the closed loop observed.
type loopStats struct {
	lat        []float64 // ms per answered batch
	attempted  int
	failed     int
	mismatched int
}

// loop runs one closed loop per client until more returns false for the
// number of requests that client has sent and the elapsed time.
func (s *batchSystem) loop(ctx context.Context, more func(n int, el time.Duration) bool) (*loopStats, error) {
	per := make([]loopStats, len(s.clients))
	errs := make([]error, len(s.clients))
	start := time.Now()
	var wg sync.WaitGroup
	for c, cl := range s.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := &per[c]
			var buf bytes.Buffer
			for n := 0; more(n, time.Since(start)) && ctx.Err() == nil; n++ {
				body, want := s.nextBody()
				t0 := time.Now()
				code, err := post(ctx, cl, s.url(), body, &buf, nil, "", 0)
				el := time.Since(t0)
				if err == nil {
					err = checkAnswer(code, buf.Bytes(), want)
				}
				st.attempted++
				switch {
				case errors.Is(err, errMismatch):
					st.mismatched++
					st.failed++
				case err != nil && code == 0:
					errs[c] = err
					return
				case err != nil:
					st.failed++
				default:
					st.lat = append(st.lat, ms(el))
				}
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	all := &loopStats{}
	for _, st := range per {
		all.lat = append(all.lat, st.lat...)
		all.attempted += st.attempted
		all.failed += st.failed
		all.mismatched += st.mismatched
	}
	return all, nil
}

func (s *batchSystem) measure(ctx context.Context, d time.Duration) (*measurement, error) {
	u0 := readUsage()
	start := time.Now()
	st, err := s.loop(ctx, func(_ int, el time.Duration) bool { return el < d })
	if err != nil {
		return nil, err
	}
	window := time.Since(start)
	m := &measurement{
		unitMS:     st.lat,
		cpu:        readUsage().cpu - u0.cpu,
		units:      float64(len(st.lat)),
		attempted:  st.attempted,
		failed:     st.failed,
		mismatched: st.mismatched,
	}
	m.details = append(m.details,
		detail{"batch_sims_per_s", float64(batchItems*len(st.lat)) / window.Seconds(), "sims/s", len(st.lat)},
		detail{"batch_p50_ms", percentile(st.lat, 50), "ms", len(st.lat)},
	)
	if hasPercentile(len(st.lat), 99) {
		m.details = append(m.details, detail{"batch_p99_ms", percentile(st.lat, 99), "ms", len(st.lat)})
	}
	return m, nil
}

func (s *batchSystem) unit(ctx context.Context, tr *tracer, req int64) (time.Duration, error) {
	body, want := s.nextBody()
	t0 := time.Now()
	code, err := post(ctx, s.clients[0], s.url(), body, &s.buf, tr, "serve.request", req)
	el := time.Since(t0)
	if err != nil {
		return el, err
	}
	return el, checkAnswer(code, s.buf.Bytes(), want)
}

// ladder splits a single-connection batch request into the serve stages,
// and the run stage into the frame-set lanes and the global items.
func (s *batchSystem) ladder(m map[string]float64, unitUS float64) []rung {
	const req = "batch request (single connection)"
	stages := []string{"serve.transport_us.batch", "serve.decode_us.batch", "serve.validate_us.batch", "serve.run_us.batch", "serve.encode_us.batch"}
	var total float64
	for _, st := range stages {
		total += m[st]
	}
	rows := []rung{{req, "", total}}
	for _, st := range stages {
		rows = append(rows, rung{st, req, m[st]})
	}
	const lanes, multi = "sim.batch_lane × frame items", "sim.multi_run × global items"
	frames, global := float64(batchItems*3/4), float64(batchItems/4)
	var frameDraws, globalDraws float64
	for _, req := range s.in.reqs {
		for i := range req.Items {
			if req.Items[i].Multi() {
				globalDraws += betaJobs(&req.Items[i])
			} else {
				frameDraws += betaJobs(&req.Items[i])
			}
		}
	}
	n := float64(len(s.in.reqs))
	return append(rows,
		rung{lanes, "serve.run_us.batch", frames * m["sim.batch_lane_us.frames"]},
		rung{"≈ beta jobs × task.beta_draw", lanes, frameDraws / n * m["task.beta_draw_us"]},
		rung{multi, "serve.run_us.batch", global * m["sim.multi_run_us"]},
		rung{"≈ beta jobs × task.beta_draw", multi, globalDraws / n * m["task.beta_draw_us"]},
	)
}
