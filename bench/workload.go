package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
	"time"
)

// setupRuns is how many times each run builds and warms its system; the
// reported setup_s is their median.
const setupRuns = 3

// traceFile is where a traced run of a workload writes its spans,
// relative to the working directory.
func traceFile(workload string) string { return "bench-trace-" + workload + ".json" }

// maxUnitSpans caps the spans the traced units of a run record, which
// bounds the span file: a traced kernel unit records one span per
// aperiodic arrival.
const maxUnitSpans = 50_000

// errMismatch marks an output that differs from its reference.
var errMismatch = errors.New("output mismatch")

// system is one workload's system under test, built from its generated
// inputs.
type system interface {
	// setUp builds the system and warms it with a fixed number of
	// operations, replacing whatever an earlier call built. A system
	// built with a tracer can record spans on its server side too.
	setUp(ctx context.Context, tr *tracer) error
	// measure runs timed operations for about d and checks every output.
	measure(ctx context.Context, d time.Duration) (*measurement, error)
	// unit runs one end-to-end unit, recording spans into tr when it is
	// not nil. An output mismatch is reported as errMismatch.
	unit(ctx context.Context, tr *tracer, req int64) (time.Duration, error)
	// ladder returns the workload's rows of the layer ladder, built from
	// the per-layer metrics and the traced unit's median time.
	ladder(m map[string]float64, unitUS float64) []rung
	close() error
}

// measurement is what one system's timed phase produced.
type measurement struct {
	unitMS     []float64     // wall time per end-to-end unit
	cpu        time.Duration // process CPU time spent on the units below
	units      float64       // units the CPU time covers
	attempted  int
	failed     int // errors, non-2xx answers and mismatches
	mismatched int
	details    []detail // workload-specific numbers, printed only
	notes      []string
}

// detail is a workload-specific number printed with the run's report.
type detail struct {
	name  string
	value float64
	unit  string
	n     int // samples behind the value
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type options struct {
	seed    int64
	seconds time.Duration
	trace   bool
}

func newSystem(name string, seed int64) (system, error) {
	switch name {
	case "fig9-sweep":
		return newFig9System(seed), nil
	case "serve-simulate":
		return newSimulateSystem(seed)
	case "serve-batch":
		return newBatchSystem(seed)
	case "rtos-kernel":
		return newKernelSystem(seed)
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// runOne runs one workload in this process and returns its result line.
func runOne(ctx context.Context, name string, o options, w io.Writer) (*result, error) {
	sys, err := newSystem(name, o.seed)
	if err != nil {
		return nil, err
	}
	defer sys.close()
	fmt.Fprintf(w, "workload %s seed %d seconds %g gomaxprocs %d\n", name, o.seed, o.seconds.Seconds(), runtime.GOMAXPROCS(0))
	if o.trace {
		return runTraced(ctx, sys, o, traceFile(name), w)
	}
	return runUntraced(ctx, sys, o, w)
}

func runUntraced(ctx context.Context, sys system, o options, w io.Writer) (*result, error) {
	var setups []float64
	for i := 0; i < setupRuns; i++ {
		t0 := time.Now()
		if err := sys.setUp(ctx, nil); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	m, err := sys.measure(ctx, o.seconds)
	if err != nil {
		return nil, err
	}
	if len(m.unitMS) == 0 || !(m.units > 0) {
		return nil, errors.New("no unit completed")
	}
	peak := float64(readUsage().peakKB) / 1024
	for _, d := range m.details {
		fmt.Fprintf(w, "detail %-28s %14.4f %-7s (n=%d)\n", d.name, d.value, d.unit, d.n)
	}
	for _, n := range m.notes {
		fmt.Fprintf(w, "note %s\n", n)
	}
	res := &result{
		Correct:   m.mismatched == 0,
		Attempted: m.attempted,
		Failed:    m.failed,
		Metrics: map[string]metricValue{
			"setup_s":     {median(setups), "s"},
			"peak_rss_mb": {peak, "MiB"},
			"unit_p50_ms": {median(m.unitMS), "ms"},
			"unit_cpu_ms": {ms(m.cpu) / m.units, "ms"},
		},
	}
	counts := map[string]int{"setup_s": len(setups), "peak_rss_mb": 1, "unit_p50_ms": len(m.unitMS), "unit_cpu_ms": int(m.units)}
	for _, mi := range endToEnd {
		v := res.Metrics[mi.Name]
		fmt.Fprintf(w, "metric %-28s %14.4f %-7s (n=%d)\n", mi.Name, v.Value, v.Unit, counts[mi.Name])
		if !(v.Value > 0) || math.IsInf(v.Value, 0) {
			return nil, fmt.Errorf("metric %s = %v: every end-to-end metric must be positive and finite", mi.Name, v.Value)
		}
	}
	fmt.Fprintf(w, "failed_ratio %d/%d\n", m.failed, m.attempted)
	return res, nil
}

func runTraced(ctx context.Context, sys system, o options, spanFile string, w io.Writer) (*result, error) {
	tr := newTracer()
	if err := sys.setUp(ctx, tr); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	res := &result{Correct: true, Metrics: map[string]metricValue{}}
	var plain, traced []float64
	start := time.Now()
	for req := int64(1); req == 1 || (time.Since(start) < o.seconds/2 && tr.len() < maxUnitSpans); req++ {
		for _, t := range []*tracer{nil, tr} {
			d, err := sys.unit(ctx, t, req)
			res.Attempted++
			switch {
			case errors.Is(err, errMismatch):
				res.Correct = false
				res.Failed++
				fmt.Fprintf(w, "note %v\n", err)
			case err != nil:
				return nil, err
			case t == nil:
				plain = append(plain, us(d))
			default:
				traced = append(traced, us(d))
			}
		}
	}
	lm, err := measureLadder(ctx, o.seed, tr)
	if err != nil {
		return nil, err
	}
	if lm.mismatched > 0 {
		res.Correct = false
		res.Failed += lm.mismatched
	}
	res.Attempted += lm.attempted
	for _, n := range lm.notes {
		fmt.Fprintf(w, "note %s\n", n)
	}
	if len(plain) == 0 || len(traced) == 0 {
		return nil, errors.New("no traced unit completed")
	}
	unitUS := median(traced)
	lm.m["bench.trace_overhead"] = unitUS / median(plain)

	spans := tr.snapshot()
	fmt.Fprintln(w, "spans (count, mean µs, mean self µs)")
	for _, s := range summarize(spans) {
		fmt.Fprintf(w, "  %-36s %-28s %8d %12.2f %12.2f\n", s.Name, "<"+s.Parent+">", s.Count,
			us(s.Total)/float64(s.Count), us(s.Self)/float64(s.Count))
	}
	printLadder(w, sys.ladder(lm.m, unitUS))
	if err := writeTrace(spanFile, spans); err != nil {
		return nil, err
	}
	for _, mi := range perLayer {
		v, ok := lm.m[mi.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("per-layer metric %s not measured", mi.Name)
		}
		res.Metrics[mi.Name] = metricValue{v, mi.Unit}
		fmt.Fprintf(w, "metric %-36s %14.4f %s\n", mi.Name, v, mi.Unit)
	}
	return res, nil
}

// digest is the SHA-256 of v's JSON encoding.
func digest(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

//go:embed golden/seed1.json
var goldenSeed1 []byte

// goldenDigests returns the committed digests of a workload's runs for
// the seed on this architecture, nil when none are committed: one per
// panel for fig9-sweep, one for every rtos-kernel run. Floating-point
// results may differ across architectures (fused multiply-add), so the
// digests are kept per GOARCH.
func goldenDigests(workload string, seed int64) ([]string, error) {
	if seed != 1 {
		return nil, nil
	}
	var g map[string]map[string][]string
	if err := json.Unmarshal(goldenSeed1, &g); err != nil {
		return nil, fmt.Errorf("golden/seed1.json: %w", err)
	}
	return g[runtime.GOARCH][workload], nil
}

// checkDigests compares run i's digest with want(i), skipping runs whose
// want is "". Mismatching runs count as failed and mismatched in m.
func checkDigests(m *measurement, ds []string, want func(i int) string) {
	bad, checked := 0, 0
	var first string
	for i, d := range ds {
		w := want(i)
		if w == "" {
			continue
		}
		checked++
		if d != w {
			if bad == 0 {
				first = fmt.Sprintf("run %d got %s, want %s", i, d, w)
			}
			bad++
		}
	}
	m.mismatched += bad
	m.failed += bad
	switch {
	case bad > 0:
		m.notes = append(m.notes, fmt.Sprintf("digest MISMATCH in %d of %d runs; %s", bad, checked, first))
	case checked == 0:
		m.notes = append(m.notes, "digests (no reference): "+strings.Join(ds, " "))
	default:
		m.notes = append(m.notes, fmt.Sprintf("digests of %d runs match (first %s)", checked, ds[0]))
	}
}

// mismatchf wraps errMismatch with a description.
func mismatchf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errMismatch, fmt.Sprintf(format, args...))
}
