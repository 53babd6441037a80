package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

// A percentile is reported only when at least ten samples lie beyond it.
func TestPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{19, 50, false},
		{20, 50, true},
		{99, 90, false},
		{100, 90, true},
		{999, 99, false},
		{1000, 99, true},
		{9999, 99.9, false},
		{10000, 99.9, true},
	} {
		if got := hasPercentile(c.n, c.p); got != c.want {
			t.Errorf("hasPercentile(%d, %v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {0, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := median([]float64{3, 1, 2, 4}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// rung builds a rung of n timed requests at lat ms each, generator
// lateness late ms.
func testRung(n int, lat, late float64) *rungResult {
	r := &rungResult{rate: 1000, offered: n, done: n, attempted: n, answered: n}
	for i := 0; i < n; i++ {
		r.lat = append(r.lat, lat)
		r.late = append(r.late, late)
	}
	return r
}

func TestRungRule(t *testing.T) {
	if r := testRung(1000, 1, 0.1); !r.passes() || !r.valid() {
		t.Errorf("a fast rung on schedule: passes=%v valid=%v", r.passes(), r.valid())
	}
	if r := testRung(1000, p99LimitMS+0.1, 0.1); r.passes() {
		t.Error("p99 above the limit passed")
	}
	r := testRung(1000, 1, 0.1)
	r.shed, r.failed = 1, 1
	if r.passes() {
		t.Error("a rung with a 429 passed")
	}

	// Backlog: 2% of the offered requests were not done within the rung
	// plus grace. They count as beyond the latency limit, and the done
	// share alone fails the rung.
	r = testRung(1000, 1, 0.1)
	for i := 0; i < 20; i++ {
		r.lat[i] = math.Inf(1)
	}
	r.done -= 20
	if r.passes() {
		t.Error("a rung that left 2% of its requests undone passed")
	}
	// 0.5% undone is within the done share and below the p99 rank.
	r = testRung(1000, 1, 0.1)
	for i := 0; i < 5; i++ {
		r.lat[i] = math.Inf(1)
	}
	r.done -= 5
	if !r.passes() {
		t.Error("a rung with 0.5% undone failed")
	}

	if r := testRung(1000, 1, lateLimitMS+0.5); r.valid() {
		t.Error("a rung the generator served 2.5 ms late is valid")
	}

	pass, fail := testRung(1000, 1, 0.1), testRung(1000, 20, 0.1)
	pass.rate, fail.rate = 500, 750
	late := testRung(1000, 1, lateLimitMS+1)
	late.rate = 1000
	if got := maxRate([]*rungResult{pass, fail, late}); got != 1000 {
		t.Errorf("maxRate = %d, want 1000 (a late but passing rung counts)", got)
	}
}

func TestDueBookkeeping(t *testing.T) {
	for _, rate := range []int{250, 1000, 1750, 3000, 7} {
		for i := 0; i < 5000; i++ {
			d := dueAt(i, rate)
			if got := dueBy(d, rate, math.MaxInt); got != i+1 {
				t.Fatalf("rate %d: dueBy(dueAt(%d)) = %d, want %d", rate, i, got, i+1)
			}
			if d > 0 {
				if got := dueBy(d-1, rate, math.MaxInt); got != i {
					t.Fatalf("rate %d: dueBy(dueAt(%d)-1ns) = %d, want %d", rate, i, got, i)
				}
			}
		}
	}
	if got := dueBy(time.Hour, 1000, 42); got != 42 {
		t.Errorf("dueBy is not capped at the total: %d", got)
	}
	if got := dueBy(-time.Millisecond, 1000, 42); got != 0 {
		t.Errorf("dueBy before the start = %d", got)
	}

	// The generator loop on a simulated clock whose wake-ups overshoot:
	// every request is handed out once, in order, never before it is due,
	// and no later than the wake-up after its due time.
	const rate, total = 1750, 3000
	sent, wakes := 0, 0
	var sentAt []time.Duration
	for sent < total {
		overshoot := time.Duration(wakes%7) * 300 * time.Microsecond
		el := dueAt(sent, rate) + overshoot
		wakes++
		for n := dueBy(el, rate, total); sent < n; sent++ {
			sentAt = append(sentAt, el)
		}
	}
	if len(sentAt) != total {
		t.Fatalf("%d requests sent, want %d", len(sentAt), total)
	}
	for i, at := range sentAt {
		late := at - dueAt(i, rate)
		if late < 0 || late > 1800*time.Microsecond {
			t.Fatalf("request %d sent %v after its due time", i, late)
		}
	}
	if wakes >= total {
		t.Errorf("%d wake-ups for %d requests: late wake-ups should send several", wakes, total)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "request", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past its parent
		{ID: 5, Parent: 2, Name: "a.x", Start: 15, End: 20},
		{ID: 6, Name: "other", Start: 0, End: 5},
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 100 - 50 - 10, 2: 30 - 5, 3: 30, 4: 30, 5: 5, 6: 5}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
	sum := summarize(append(spans, span{ID: 7, Parent: 6, Name: "a", Start: 1, End: 2}))
	if sum[1].Name != "a" || sum[1].Count != 2 || sum[1].Self != 26 {
		t.Errorf("summary of a = %+v", sum[1])
	}
}

func TestTracerNilIsOff(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", 0, 1)
	tr.end(id)
	if id != 0 {
		t.Errorf("nil tracer returned span %d", id)
	}
	tr = newTracer()
	a := tr.begin("a", 0, 1)
	b := tr.begin("b", a, 1)
	tr.end(b)
	tr.end(a)
	got := tr.snapshot()
	if len(got) != 2 || got[1].Parent != a || got[0].End < got[1].End {
		t.Errorf("spans = %+v", got)
	}
}

// benchmarkJSON mirrors BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestListMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	for _, w := range b.Workloads {
		fmt.Fprintf(&want, "workload %s\n", w.Name)
	}
	for _, m := range b.EndToEnd {
		fmt.Fprintf(&want, "end_to_end %s %s %s %g\n", m.Name, m.Unit, m.Better, m.Bound)
	}
	for _, m := range b.PerLayer {
		fmt.Fprintf(&want, "per_layer %s %s %s\n", m.Name, m.Unit, m.Better)
	}
	var out, errb bytes.Buffer
	if code := run(context.Background(), []string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("-list exited %d: %s", code, errb.String())
	}
	if out.String() != want.String() {
		t.Errorf("-list output differs from BENCHMARK.json:\n got:\n%s\nwant:\n%s", out.String(), want.String())
	}
	for i, w := range b.Workloads {
		if i < len(workloads) && workloads[i].Why != w.Why {
			t.Errorf("workload %s: why differs from BENCHMARK.json", w.Name)
		}
	}
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, default -seconds %d", b.RunSeconds, defaultSeconds)
	}
}

// smoke runs one workload briefly and returns its result line.
func smoke(t *testing.T, args ...string) *result {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(context.Background(), args, &out, &errb)
	if code != 0 {
		t.Fatalf("%v exited %d\nstdout:\n%s\nstderr:\n%s", args, code, out.String(), errb.String())
	}
	res, err := lastResult(out.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%v: correct=%v failed=%d attempted=%d\n%s", args, res.Correct, res.Failed, res.Attempted, out.String())
	}
	return res
}

// TestSmoke runs every workload for about a second: every end-to-end
// metric must be present and positive and no operation may fail. Its
// timings mean nothing: under go test the sim invariant checker is on.
func TestSmoke(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.Name, func(t *testing.T) {
			res := smoke(t, "-workload", wl.Name, "-seconds", "1", "-seed", "2")
			if len(res.Metrics) != len(endToEnd) {
				t.Errorf("%d metrics, want %d", len(res.Metrics), len(endToEnd))
			}
			for _, m := range endToEnd {
				v, ok := res.Metrics[m.Name]
				if !ok || !(v.Value > 0) || v.Unit != m.Unit {
					t.Errorf("metric %s = %+v (present %v)", m.Name, v, ok)
				}
			}
		})
	}
}

// TestSmokeTrace runs one traced run: every per-layer metric must be
// present and the span file written. The ladder takes tens of seconds,
// so -short skips it.
func TestSmokeTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("the traced ladder takes tens of seconds")
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = os.Chdir(wd) })
	res := smoke(t, "-workload", "rtos-kernel", "-seconds", "1", "-trace", "1")
	if len(res.Metrics) != len(perLayer) {
		t.Errorf("%d metrics, want %d", len(res.Metrics), len(perLayer))
	}
	for _, m := range perLayer {
		if v, ok := res.Metrics[m.Name]; !ok || v.Unit != m.Unit {
			t.Errorf("metric %s = %+v (present %v)", m.Name, v, ok)
		}
	}
	raw, err := os.ReadFile(traceFile("rtos-kernel"))
	if err != nil {
		t.Fatal(err)
	}
	var tf struct {
		Spans []json.RawMessage `json:"spans"`
	}
	if err := json.Unmarshal(raw, &tf); err != nil || len(tf.Spans) == 0 {
		t.Errorf("%s: %d spans, err %v", traceFile("rtos-kernel"), len(tf.Spans), err)
	}
}
