package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"rtdvs/internal/sim"
)

// Client is the Go binding of the server's JSON API. Each call sends
// one request: a 2xx answer is decoded into the result, any other
// answer comes back as a *StatusError, and a transport failure as the
// transport's error. Nothing is retried here; a caller that wants
// retries owns them, as internal/fabric does for shards.
type Client struct {
	// Base is the server root, e.g. "http://127.0.0.1:8344".
	Base string
	// HTTP is the transport (default http.DefaultClient).
	HTTP *http.Client
}

// NewClient builds a client for the server rooted at base.
func NewClient(base string) *Client {
	return &Client{Base: base}
}

// StatusError is a non-2xx answer.
type StatusError struct {
	Status int
	Body   string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("serve: HTTP %d: %s", e.Status, e.Body)
}

// Simulate runs one simulation synchronously.
func (c *Client) Simulate(ctx context.Context, req SimulateRequest) (*sim.Result, error) {
	var res sim.Result
	if err := c.call(ctx, "POST", "/v1/simulate", req, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// SimulateMulti runs one multi-core simulation synchronously. The
// request must set Cores > 1; the scalar Simulate cannot decode a
// multi-core response and vice versa.
func (c *Client) SimulateMulti(ctx context.Context, req SimulateRequest) (*sim.MultiResult, error) {
	if req.Cores <= 1 {
		return nil, fmt.Errorf("serve: SimulateMulti requires cores > 1, got %d", req.Cores)
	}
	var res sim.MultiResult
	if err := c.call(ctx, "POST", "/v1/simulate", req, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// StartSweep submits an asynchronous sweep and returns its job ID.
func (c *Client) StartSweep(ctx context.Context, req SweepRequest) (string, error) {
	var st JobStatus
	if err := c.call(ctx, "POST", "/v1/sweep", req, &st); err != nil {
		return "", err
	}
	return st.ID, nil
}

// Healthz checks the server's liveness endpoint. The fabric
// coordinator uses it to probe ejected workers for re-admission.
func (c *Client) Healthz(ctx context.Context) error {
	return c.call(ctx, "GET", "/healthz", nil, nil)
}

// Job fetches a job's current status.
func (c *Client) Job(ctx context.Context, id string) (*JobStatus, error) {
	var st JobStatus
	if err := c.call(ctx, "GET", "/v1/jobs/"+id, nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// WaitJob polls a job until it reaches a terminal state or ctx expires.
func (c *Client) WaitJob(ctx context.Context, id string, poll time.Duration) (*JobStatus, error) {
	if poll <= 0 {
		poll = 50 * time.Millisecond
	}
	t := time.NewTicker(poll)
	defer t.Stop()
	for {
		st, err := c.Job(ctx, id)
		if err != nil {
			return nil, err
		}
		if st.Status.Terminal() {
			return st, nil
		}
		select {
		case <-t.C:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// call sends one request and decodes a 2xx answer into out.
func (c *Client) call(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.Base+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	httpc := c.HTTP
	if httpc == nil {
		httpc = http.DefaultClient
	}
	resp, err := httpc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	respBody, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode >= 300 {
		return &StatusError{Status: resp.StatusCode, Body: string(respBody)}
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(respBody, out)
}
