package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"rtdvs/internal/sim"
)

// SimulateBatchRequest is the body of POST /v1/simulate:batch: many
// independent simulations submitted in one request. The whole batch is
// decoded, validated, and executed together — one HTTP round trip, one
// concurrency slot, one pooled runner pair — which amortizes the
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

func (s *Server) handleSimulateBatch(w http.ResponseWriter, r *http.Request) {
	var req SimulateBatchRequest
	if !s.readRequest(w, r, &req) {
		return
	}
	if len(req.Items) == 0 {
		s.writeError(w, http.StatusBadRequest, errors.New("serve: batch has no items"))
		return
	}
	if len(req.Items) > maxBatchItems {
		s.writeError(w, http.StatusBadRequest,
			fmt.Errorf("serve: batch has %d items, limit %d", len(req.Items), maxBatchItems))
		return
	}
	s.metrics.batchSize.Observe(float64(len(req.Items)))

	// Validate every item up front (the decode already happened once for
	// the whole body); invalid items get per-item errors and never run.
	resp := SimulateBatchResponse{Items: make([]SimulateBatchItem, len(req.Items))}
	sims := make([]simulation, len(req.Items))
	for i := range req.Items {
		var err error
		if sims[i], err = req.Items[i].validate(); err != nil {
			resp.Items[i].Error = err.Error()
		}
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
	rp := runnerPool.Get().(*runners)
	for i := range sims {
		item := &resp.Items[i]
		if item.Error != "" {
			continue
		}
		res, err := rp.run(ctx, &sims[i])
		if err != nil {
			_, err = s.runError(err)
			item.Error = err.Error()
			continue
		}
		// Results alias rp's buffers, which the next item reuses.
		switch res := res.(type) {
		case *sim.Result:
			item.Result = res.Clone()
		case *sim.MultiResult:
			item.Multi = res.Clone()
		}
	}
	runnerPool.Put(rp)

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
