package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"rtdvs/internal/sim"
	"rtdvs/internal/task"
)

// Every item of a batch must come back exactly as a standalone
// /v1/simulate run of the same request would — the batch endpoint
// amortizes transport and dispatch, never results.
func TestSimulateBatchMatchesScalarEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	items := []SimulateRequest{
		{Tasks: paperTasks(), Policy: "ccEDF", Exec: "c=0.9", Horizon: 280},
		{Tasks: paperTasks(), Policy: "laEDF", Exec: "wcet", Horizon: 280},
		{Tasks: []task.Task{{Period: 20, WCET: 4}, {Period: 20, WCET: 6}}, Policy: "ccRM", Horizon: 400},
		{Tasks: paperTasks(), Policy: "none", Overhead: true, Horizon: 160},
	}
	body, _ := json.Marshal(SimulateBatchRequest{Items: items})
	resp := postJSON(t, ts.URL+"/v1/simulate:batch", string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	got := decodeBody[SimulateBatchResponse](t, resp)
	if len(got.Items) != len(items) {
		t.Fatalf("%d items back, want %d", len(got.Items), len(items))
	}
	for i, item := range items {
		if got.Items[i].Error != "" {
			t.Fatalf("item %d: %s", i, got.Items[i].Error)
		}
		cfg, err := item.Config()
		if err != nil {
			t.Fatal(err)
		}
		want, err := sim.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Compare through the JSON round trip both sides take.
		wantJSON, _ := json.Marshal(want)
		gotJSON, _ := json.Marshal(got.Items[i].Result)
		if !reflect.DeepEqual(wantJSON, gotJSON) {
			t.Errorf("item %d (%s): batch %s, scalar %s", i, item.Policy, gotJSON, wantJSON)
		}
	}
}

// Items fail independently: an invalid item reports its error in place
// while its siblings still run.
func TestSimulateBatchPerItemErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{"items":[
		{"tasks":[{"period":8,"wcet":3}]},
		{"tasks":[]},
		{"tasks":[{"period":8,"wcet":3}],"policy":"warp"},
		{"tasks":[{"period":10,"wcet":2}],"policy":"ccEDF"}
	]}`
	resp := postJSON(t, ts.URL+"/v1/simulate:batch", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	got := decodeBody[SimulateBatchResponse](t, resp)
	if len(got.Items) != 4 {
		t.Fatalf("%d items back, want 4", len(got.Items))
	}
	for _, i := range []int{0, 3} {
		if got.Items[i].Error != "" || got.Items[i].Result == nil {
			t.Errorf("item %d: want a result, got error %q", i, got.Items[i].Error)
		}
	}
	if !strings.Contains(got.Items[1].Error, "empty task set") {
		t.Errorf("item 1 error %q does not mention the empty set", got.Items[1].Error)
	}
	if !strings.Contains(got.Items[2].Error, "unknown policy") {
		t.Errorf("item 2 error %q does not mention the unknown policy", got.Items[2].Error)
	}
}

// The batch route shares the strict decoder and body bound: unknown
// fields and oversized bodies are refused before any simulation runs.
func TestSimulateBatchRequestLimits(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	item := `{"tasks":[{"period":8,"wcet":3}]}`
	for _, tc := range []struct {
		name, body string
		wantStatus int
		wantMsg    string
	}{
		{"emptyBatch", `{"items":[]}`, http.StatusBadRequest, "no items"},
		{"noItemsField", `{}`, http.StatusBadRequest, "no items"},
		{"tooManyItems", `{"items":[` + strings.Repeat(item+",", maxBatchItems) + item + `]}`,
			http.StatusBadRequest, fmt.Sprintf("has %d items, limit %d", maxBatchItems+1, maxBatchItems)},
		{"unknownTopField", `{"items":[],"bogus":1}`, http.StatusBadRequest, "unknown field"},
		{"unknownItemField", `{"items":[{"tasks":[{"period":8,"wcet":3}],"bogus":1}]}`, http.StatusBadRequest, "unknown field"},
		{"trailingGarbage", `{"items":[{"tasks":[{"period":8,"wcet":3}]}]} "extra"`, http.StatusBadRequest, "trailing data"},
		{"oversized", `{"items":[{"tasks":[` + strings.Repeat(`{"period":8,"wcet":3},`, maxBody/20) + `{"period":8,"wcet":3}]}]}`,
			http.StatusRequestEntityTooLarge, fmt.Sprintf("exceeds %d bytes", maxBody)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp := postJSON(t, ts.URL+"/v1/simulate:batch", tc.body)
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status %d, want %d", resp.StatusCode, tc.wantStatus)
			}
			eb := decodeBody[errorBody](t, resp)
			if !strings.Contains(eb.Error, tc.wantMsg) {
				t.Errorf("error %q does not mention %q", eb.Error, tc.wantMsg)
			}
		})
	}
}

// One batch holds exactly one concurrency slot; with all slots taken it
// is shed like any simulate request.
func TestSimulateBatchShedsWhenFull(t *testing.T) {
	s, ts := newTestServer(t, Config{SimConcurrency: 1})
	s.simSem <- struct{}{}
	defer func() { <-s.simSem }()
	resp := postJSON(t, ts.URL+"/v1/simulate:batch", `{"items":[{"tasks":[{"period":8,"wcet":3}]}]}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	resp.Body.Close()
}

// Batch size and per-item outcomes must flow through the registry.
func TestSimulateBatchMetrics(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	body := `{"items":[
		{"tasks":[{"period":8,"wcet":3}]},
		{"tasks":[]},
		{"tasks":[{"period":10,"wcet":2}],"policy":"ccEDF"}
	]}`
	resp := postJSON(t, ts.URL+"/v1/simulate:batch", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	resp.Body.Close()

	var buf strings.Builder
	if err := s.registry.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		`rtdvs_http_batch_size_count 1`,
		`rtdvs_http_batch_items_total{outcome="ok"} 2`,
		`rtdvs_http_batch_items_total{outcome="error"} 1`,
		`rtdvs_http_requests_total{route="simulateBatch",code="200"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
}

// The typed client round-trips a batch and surfaces per-item outcomes.
func TestClientSimulateBatch(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	c := NewClient(ts.URL)
	items, err := c.SimulateBatch(context.Background(), SimulateBatchRequest{Items: []SimulateRequest{
		{Tasks: paperTasks(), Policy: "ccEDF", Horizon: 280},
		{Tasks: nil},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if items[0].Error != "" || items[0].Result == nil {
		t.Errorf("item 0: want result, got error %q", items[0].Error)
	}
	if items[1].Error == "" {
		t.Error("item 1: want per-item error for the empty set")
	}
}

// FuzzSimulateBatchRequest asserts that the batch handler — decode,
// per-item validation and the one item loop on a pooled runner pair —
// never panics, whatever the body: it answers 200 with per-item
// outcomes, or 400.
func FuzzSimulateBatchRequest(f *testing.F) {
	seeds := []string{
		`{"items":[{"tasks":[{"period":8,"wcet":3}]}]}`,
		`{"items":[{"tasks":[{"period":8,"wcet":3}],"policy":"laEDF","exec":"uniform","seed":3},{"tasks":[]}]}`,
		`{"items":[{"tasks":[{"period":1e308,"wcet":1e308}],"horizon":1e308}]}`,
		`{"items":[{"tasks":[{"period":8,"wcet":3}],"machineSpec":{"points":[{"freq":1,"voltage":-2}]}}]}`,
		`{"items":[{"tasks":[{"period":8,"wcet":3},{"period":10,"wcet":3}],"cores":2},{"tasks":[{"period":8,"wcet":3}],"cores":2,"placement":"global","policy":"gangCCEDF"}]}`,
		`{"items":[]}`,
		`{"items":null}`,
		`{`,
		`[]`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	s := fuzzServer(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		rec := httptest.NewRecorder()
		s.handleSimulateBatch(rec, httptest.NewRequest("POST", "/v1/simulate:batch", bytes.NewReader(data)))
		if rec.Code != http.StatusOK && rec.Code != http.StatusBadRequest {
			t.Fatalf("body %q: status %d: %s", data, rec.Code, rec.Body)
		}
	})
}
