package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"

	"rtdvs/internal/sim"
)

// SimulateBatchRequest is the body of POST /v1/simulate:batch: many
// independent simulations submitted in one request. The whole batch is
// decoded, validated, and executed together — one HTTP round trip, one
// concurrency slot, one pooled BatchRunner — which amortizes the
// per-request overhead that dominates small simulations.
type SimulateBatchRequest struct {
	Items []SimulateRequest `json:"items"`
}

// SimulateBatchItem is one item's outcome: exactly one of Result,
// Multi, and Error is set. Items fail independently — a bad task set in
// one item never blocks its siblings. Multi carries the outcome of a
// cores > 1 item (see SimulateRequest.Cores); scalar items answer in
// Result.
type SimulateBatchItem struct {
	Result *sim.Result      `json:"result,omitempty"`
	Multi  *sim.MultiResult `json:"multi,omitempty"`
	Error  string           `json:"error,omitempty"`
}

// SimulateBatchResponse carries per-item outcomes in request order.
type SimulateBatchResponse struct {
	Items []SimulateBatchItem `json:"items"`
}

// batchPool recycles BatchRunners across requests; a reused runner's
// backing slices are already sized, so a steady stream of batches
// stops allocating engine state entirely.
var batchPool = sync.Pool{New: func() any { return sim.NewBatchRunner() }}

func (s *Server) handleSimulateBatch(w http.ResponseWriter, r *http.Request) {
	var req SimulateBatchRequest
	if !s.readRequest(w, r, &req) {
		return
	}
	if len(req.Items) == 0 {
		s.writeError(w, http.StatusBadRequest, errors.New("serve: batch has no items"))
		return
	}
	if len(req.Items) > s.cfg.MaxBatchItems {
		s.writeError(w, http.StatusBadRequest,
			fmt.Errorf("serve: batch has %d items, limit %d", len(req.Items), s.cfg.MaxBatchItems))
		return
	}
	s.metrics.batchSize.Observe(float64(len(req.Items)))

	// Validate every item up front (the decode already happened once for
	// the whole body); invalid items get per-item errors and contribute
	// no lanes. Each item's Config holds its own policy instance, as
	// BatchRunner requires.
	resp := SimulateBatchResponse{Items: make([]SimulateBatchItem, len(req.Items))}
	cfgs := make([]sim.Config, 0, len(req.Items))
	laneItem := make([]int, 0, len(req.Items))
	var mcfgs []sim.MultiConfig
	var mLaneItem []int
	for i := range req.Items {
		if req.Items[i].Multi() {
			mcfg, err := req.Items[i].MultiConfig()
			if err != nil {
				resp.Items[i].Error = err.Error()
				continue
			}
			mcfgs = append(mcfgs, mcfg)
			mLaneItem = append(mLaneItem, i)
			continue
		}
		cfg, err := req.Items[i].Config()
		if err != nil {
			resp.Items[i].Error = err.Error()
			continue
		}
		cfgs = append(cfgs, cfg)
		laneItem = append(laneItem, i)
	}

	// One concurrency slot covers the whole batch — that is the point:
	// K simulations ride one unit of server capacity.
	select {
	case s.simSem <- struct{}{}:
		defer func() { <-s.simSem }()
	default:
		s.shed(w)
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.SimTimeout)
	defer cancel()
	if len(cfgs) > 0 || len(mcfgs) > 0 {
		br := batchPool.Get().(*sim.BatchRunner)
		if len(cfgs) > 0 {
			results, errs := br.RunContext(ctx, cfgs)
			// Lane results alias the runner's reusable buffers; copy each
			// into the response before the runner returns to the pool.
			for li, i := range laneItem {
				if err := errs[li]; err != nil {
					var canceled *sim.Canceled
					if errors.As(err, &canceled) && errors.Is(err, context.DeadlineExceeded) {
						s.metrics.timeouts.Inc()
						resp.Items[i].Error = fmt.Sprintf(
							"simulation exceeded the %v batch limit (stopped at t=%g of %g)",
							s.cfg.SimTimeout, canceled.At, cfgs[li].Horizon)
					} else {
						resp.Items[i].Error = err.Error()
					}
					continue
				}
				resp.Items[i].Result = results[li].Clone()
			}
		}
		if len(mcfgs) > 0 {
			results, errs := br.RunMultiContext(ctx, mcfgs)
			for li, i := range mLaneItem {
				if err := errs[li]; err != nil {
					var canceled *sim.MultiCanceled
					if errors.As(err, &canceled) && errors.Is(err, context.DeadlineExceeded) {
						s.metrics.timeouts.Inc()
						resp.Items[i].Error = fmt.Sprintf(
							"simulation exceeded the %v batch limit (stopped at t=%g of %g)",
							s.cfg.SimTimeout, canceled.At, mcfgs[li].Horizon)
					} else {
						resp.Items[i].Error = err.Error()
					}
					continue
				}
				resp.Items[i].Multi = results[li].Clone()
			}
		}
		batchPool.Put(br)
	}

	if err := r.Context().Err(); err != nil {
		// The client went away mid-batch; status is for logs only.
		s.writeError(w, StatusClientClosedRequest, errors.New("client closed request"))
		return
	}
	for i := range resp.Items {
		if resp.Items[i].Error != "" {
			s.metrics.batchItems.With("error").Inc()
		} else {
			s.metrics.batchItems.With("ok").Inc()
		}
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// SimulateBatch runs many simulations in one request. The returned
// slice is in item order; per-item failures surface in each
// SimulateBatchItem rather than as a call error.
func (c *Client) SimulateBatch(ctx context.Context, req SimulateBatchRequest) ([]SimulateBatchItem, error) {
	var resp SimulateBatchResponse
	if err := c.call(ctx, "POST", "/v1/simulate:batch", req, &resp); err != nil {
		return nil, err
	}
	if len(resp.Items) != len(req.Items) {
		return nil, fmt.Errorf("serve: batch answered %d items for %d requests", len(resp.Items), len(req.Items))
	}
	return resp.Items, nil
}
