package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"rtdvs/internal/sim"
	"rtdvs/internal/task"
)

// multiTasks is a set wide enough to load several cores.
func multiTasks() []task.Task {
	return []task.Task{
		{Period: 8, WCET: 3},
		{Period: 10, WCET: 3},
		{Period: 14, WCET: 4},
		{Period: 20, WCET: 7},
		{Period: 25, WCET: 6},
		{Period: 40, WCET: 10},
	}
}

// The multi-core simulate path must agree exactly with a direct
// sim.RunMulti of the same configuration.
func TestSimulateMultiEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	req := SimulateRequest{
		Tasks: multiTasks(), Policy: "ccEDF", Exec: "c=0.9",
		Horizon: 280, Cores: 2, Placement: "partitioned-wf",
	}
	body, _ := json.Marshal(req)
	resp := postJSON(t, ts.URL+"/v1/simulate", string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	got := decodeBody[sim.MultiResult](t, resp)

	mcfg, err := req.MultiConfig()
	if err != nil {
		t.Fatal(err)
	}
	want, err := sim.RunMulti(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.TotalEnergy != want.TotalEnergy || got.Switches != want.Switches ||
		got.Cores != 2 || got.Placement != "partitioned-wf" ||
		len(got.PerCore) != 2 {
		t.Errorf("endpoint result %+v differs from direct run %+v", got, want)
	}
}

// TestClientSimulateMulti drives the typed client against a live
// server, including its cores guard.
func TestClientSimulateMulti(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	c := NewClient(ts.URL)

	req := SimulateRequest{Tasks: multiTasks(), Policy: "laEDF", Exec: "wcet", Horizon: 200, Cores: 4}
	got, err := c.SimulateMulti(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	mcfg, err := req.MultiConfig()
	if err != nil {
		t.Fatal(err)
	}
	want, err := sim.RunMulti(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.TotalEnergy != want.TotalEnergy || got.Cores != want.Cores {
		t.Errorf("client result diverges: %v vs %v", got.TotalEnergy, want.TotalEnergy)
	}

	req.Cores = 1
	if _, err := c.SimulateMulti(context.Background(), req); err == nil {
		t.Error("SimulateMulti with cores=1 should be rejected client-side")
	}
}

// Every malformed multi-core body must be a 400 with an explanatory
// message, mirroring the scalar validation contract.
func TestSimulateMultiValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	tasksJSON := `[{"period": 10, "wcet": 3}]`
	for _, tc := range []struct {
		name, body, wantMsg string
	}{
		{"negative cores", `{"tasks": ` + tasksJSON + `, "cores": -1}`, "cores"},
		{"cores too large", `{"tasks": ` + tasksJSON + `, "cores": 4096}`, "cores"},
		{"placement without cores", `{"tasks": ` + tasksJSON + `, "placement": "global"}`, "placement"},
		{"unknown placement", `{"tasks": ` + tasksJSON + `, "cores": 2, "placement": "ring"}`, "placement"},
		{"global without gang policy", `{"tasks": ` + tasksJSON + `, "cores": 2, "placement": "global", "policy": "ccEDF"}`, "global"},
		{"bad exec", `{"tasks": ` + tasksJSON + `, "cores": 2, "exec": "c=7"}`, "c="},
	} {
		resp := postJSON(t, ts.URL+"/v1/simulate", tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, resp.StatusCode)
			resp.Body.Close()
			continue
		}
		e := decodeBody[errorBody](t, resp)
		if !strings.Contains(e.Error, tc.wantMsg) {
			t.Errorf("%s: error %q does not mention %q", tc.name, e.Error, tc.wantMsg)
		}
	}
}

// A batch may mix scalar and multi-core items freely; each answers in
// its own field, in request order, and failures stay per-item.
func TestSimulateBatchMixedScalarMulti(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	items := []SimulateRequest{
		{Tasks: paperTasks(), Policy: "ccEDF", Exec: "wcet", Horizon: 120},
		{Tasks: multiTasks(), Policy: "laEDF", Exec: "uniform", Seed: 7, Horizon: 120, Cores: 2},
		{Tasks: multiTasks(), Policy: "nosuch", Horizon: 120, Cores: 2},
		{Tasks: multiTasks(), Policy: "gangCCEDF", Exec: "c=0.8", Horizon: 120, Cores: 4, Placement: "global"},
	}
	body, _ := json.Marshal(SimulateBatchRequest{Items: items})
	resp := postJSON(t, ts.URL+"/v1/simulate:batch", string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	got := decodeBody[SimulateBatchResponse](t, resp)
	if len(got.Items) != len(items) {
		t.Fatalf("%d items answered for %d requests", len(got.Items), len(items))
	}

	if got.Items[0].Result == nil || got.Items[0].Multi != nil || got.Items[0].Error != "" {
		t.Errorf("scalar item answered wrong: %+v", got.Items[0])
	}
	if got.Items[2].Error == "" || got.Items[2].Result != nil || got.Items[2].Multi != nil {
		t.Errorf("invalid item should carry only an error: %+v", got.Items[2])
	}
	for _, i := range []int{1, 3} {
		if got.Items[i].Multi == nil || got.Items[i].Result != nil || got.Items[i].Error != "" {
			t.Fatalf("multi item %d answered wrong: %+v", i, got.Items[i])
		}
		mcfg, err := items[i].MultiConfig()
		if err != nil {
			t.Fatal(err)
		}
		want, err := sim.RunMulti(mcfg)
		if err != nil {
			t.Fatal(err)
		}
		if got.Items[i].Multi.TotalEnergy != want.TotalEnergy ||
			got.Items[i].Multi.Cores != want.Cores {
			t.Errorf("multi item %d diverges from direct run", i)
		}
	}
}

// TestSweepRequestCores: the sweep config carries cores/placement into
// the experiment harness, scales the utilization ceiling to the core
// count, and rejects global placement (no per-policy baseline).
func TestSweepRequestCores(t *testing.T) {
	req := SweepRequest{NTasks: 8, Sets: 2, Utilizations: []float64{1.5}, Cores: 2, Placement: "wf"}
	cfg, err := req.Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Cores != 2 || cfg.Placement.String() != "partitioned-wf" {
		t.Errorf("config cores/placement = %d/%v", cfg.Cores, cfg.Placement)
	}

	bad := []SweepRequest{
		{NTasks: 8, Sets: 2, Utilizations: []float64{1.5}},                                        // u > 1 without cores
		{NTasks: 8, Sets: 2, Utilizations: []float64{0.5}, Cores: -2},                             // bad cores
		{NTasks: 8, Sets: 2, Utilizations: []float64{0.5}, Cores: 2, Placement: "global"},         // no baseline
		{NTasks: 8, Sets: 2, Utilizations: []float64{2.5}, Cores: 2},                              // u > m
		{NTasks: 8, Sets: 2, Utilizations: []float64{0.5}, Cores: 0, Placement: "partitioned-ff"}, // placement without cores
	}
	for i, r := range bad {
		if _, err := r.Config(); err == nil {
			t.Errorf("bad sweep request %d accepted", i)
		}
	}
}

// An end-to-end multi-core sweep job through the HTTP surface must
// finish and carry a well-formed result.
func TestSweepJobMulticore(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	c := NewClient(ts.URL)
	id, err := c.StartSweep(context.Background(), SweepRequest{
		NTasks: 6, Sets: 2, Seed: 9, Utilizations: []float64{0.8, 1.4},
		Cores: 2, Placement: "partitioned-wf", Exec: "uniform",
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.WaitJob(context.Background(), id, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Status != JobDone {
		t.Fatalf("job finished %v: %s", st.Status, st.Error)
	}
	if st.Sweep == nil || !reflect.DeepEqual(st.Sweep.Utilizations, []float64{0.8, 1.4}) {
		t.Fatalf("malformed sweep result: %+v", st.Sweep)
	}
	for _, p := range []string{"none", "laEDF"} {
		if len(st.Sweep.Normalized[p]) != 2 {
			t.Errorf("policy %s missing from multi-core sweep", p)
		}
	}
}

// FuzzMultiCoreConfig asserts the multi-core decode→validate→run path
// never panics and never violates the engine's occupancy invariant
// (never two jobs on one core at once — CheckInvariants makes the
// engine self-verify every dispatch). Errors are acceptable outcomes;
// crashes and invariant trips are not.
func FuzzMultiCoreConfig(f *testing.F) {
	seeds := []string{
		`{"tasks":[{"period":8,"wcet":3},{"period":10,"wcet":3}],"cores":2}`,
		`{"tasks":[{"period":8,"wcet":3},{"period":10,"wcet":3}],"cores":4,"placement":"partitioned-wf","policy":"laEDF","exec":"uniform","seed":7,"horizon":200}`,
		`{"tasks":[{"period":8,"wcet":3},{"period":10,"wcet":3}],"cores":2,"placement":"global","policy":"gangCCEDF","exec":"c=0.8"}`,
		`{"tasks":[{"period":8,"wcet":3}],"cores":64,"horizon":1e308}`,
		`{"tasks":[{"period":1e-9,"wcet":1e-9}],"cores":3,"placement":"ff"}`,
		`{"tasks":[{"period":8,"wcet":3}],"cores":-1}`,
		`{"tasks":[{"period":8,"wcet":3}],"cores":2,"placement":"ring"}`,
		`{"tasks":[{"period":8,"wcet":3}],"cores":2,"overhead":{"time":0.1,"energy":0.5}}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var req SimulateRequest
		if err := decodeStrict(data, &req); err != nil {
			return
		}
		if !req.Multi() {
			return
		}
		mcfg, err := req.MultiConfig()
		if err != nil {
			return
		}
		mcfg.CheckInvariants = true
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel()
		if _, err := sim.RunMultiContext(ctx, mcfg); err != nil {
			enc, _ := json.Marshal(req)
			t.Logf("request %s: %v", enc, err)
		}
	})
}
