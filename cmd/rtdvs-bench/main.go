// Command rtdvs-bench runs the repository's benchmark suite and gates
// performance regressions against a committed baseline.
//
// Usage:
//
//	rtdvs-bench [-bench regexp] [-benchtime d] [-count n] [-dir path]
//	            [-out file] [-baseline file] [-gate regexp] [-threshold f]
//
// The tool shells out to `go test -run=^$ -bench ... -benchmem`, parses
// the standard benchmark output (ns/op, B/op, allocs/op), and emits one
// JSON report. With -out the report is written to a file — the committed
// baselines follow the BENCH_PR<n>.json naming convention, one per
// performance-relevant PR, so the repository carries its own performance
// trajectory.
//
// When a baseline is available (explicitly via -baseline, or the newest
// prior BENCH_*.json in -dir otherwise), rtdvs-bench prints a per-
// benchmark delta report and fails with exit code 1 if any benchmark
// matching -gate regressed in ns/op by more than -threshold (default
// 15%). Benchmarks outside the gate are reported but never fail the
// run: micro-benchmarks of tiny helpers are too noisy to gate, while
// the simulator and kernel throughput numbers are stable end-to-end
// measurements. Exit code 2 means the benchmarks could not be run or
// parsed at all.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Benchmark is one parsed benchmark result. Names are normalized by
// stripping the -GOMAXPROCS suffix so reports from machines with
// different core counts stay comparable.
type Benchmark struct {
	Name     string  `json:"name"`
	Iters    int64   `json:"iters"`
	NsOp     float64 `json:"ns_op"`
	BOp      float64 `json:"b_op"`
	AllocsOp float64 `json:"allocs_op"`
}

// Report is the JSON document rtdvs-bench emits.
type Report struct {
	Label      string      `json:"label,omitempty"`
	Date       string      `json:"date"`
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchtime  string      `json:"benchtime,omitempty"`
	Count      int         `json:"count"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// Delta is one baseline-versus-current comparison row.
type Delta struct {
	Name     string
	Old, New float64 // ns/op
	Pct      float64 // (New-Old)/Old
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("rtdvs-bench", flag.ExitOnError)
	bench := fs.String("bench", ".", "benchmarks to run (go test -bench regexp)")
	benchtime := fs.String("benchtime", "", "per-benchmark budget (go test -benchtime); empty = go default")
	count := fs.Int("count", 1, "runs per benchmark; the fastest ns/op is kept")
	dir := fs.String("dir", ".", "package directory to benchmark and search for baselines")
	out := fs.String("out", "", "write the JSON report to this file (empty = stdout summary only)")
	baseline := fs.String("baseline", "", "baseline JSON to compare against (empty = newest BENCH_*.json in -dir)")
	gate := fs.String("gate", "SimulatorThroughput|MultiCoreThroughput|KernelThroughput|BatchThroughput|ServeSimulateBatch|PolicyOverheadFBEDF64|PolicyOverheadSTSelect64|BetaDraw",
		"benchmarks whose ns/op regressions fail the run (regexp)")
	threshold := fs.Float64("threshold", 0.15, "maximum tolerated ns/op regression for gated benchmarks")
	fs.Parse(args)

	gateRe, err := regexp.Compile(*gate)
	if err != nil {
		fmt.Fprintf(stderr, "rtdvs-bench: bad -gate regexp: %v\n", err)
		return 2
	}

	goArgs := []string{"test", "-run=^$", "-bench", *bench, "-benchmem", "-count", strconv.Itoa(*count)}
	if *benchtime != "" {
		goArgs = append(goArgs, "-benchtime", *benchtime)
	}
	goArgs = append(goArgs, ".")
	cmd := exec.Command("go", goArgs...)
	cmd.Dir = *dir
	raw, err := cmd.CombinedOutput()
	if err != nil {
		fmt.Fprintf(stderr, "rtdvs-bench: go test failed: %v\n%s", err, raw)
		return 2
	}

	rep, err := parseBenchOutput(string(raw))
	if err != nil {
		fmt.Fprintf(stderr, "rtdvs-bench: %v\n%s", err, raw)
		return 2
	}
	rep.Benchtime = *benchtime
	rep.Count = *count
	rep.Date = time.Now().UTC().Format("2006-01-02")
	if *out != "" {
		rep.Label = strings.TrimSuffix(filepath.Base(*out), ".json")
	}

	fmt.Fprintf(stdout, "%d benchmarks (%s/%s", len(rep.Benchmarks), rep.Goos, rep.Goarch)
	if rep.CPU != "" {
		fmt.Fprintf(stdout, ", %s", rep.CPU)
	}
	fmt.Fprintln(stdout, "):")
	for _, b := range rep.Benchmarks {
		fmt.Fprintf(stdout, "  %-44s %14.1f ns/op %10.0f B/op %8.0f allocs/op\n",
			b.Name, b.NsOp, b.BOp, b.AllocsOp)
	}

	if *out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintf(stderr, "rtdvs-bench: %v\n", err)
			return 2
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(stderr, "rtdvs-bench: %v\n", err)
			return 2
		}
		fmt.Fprintf(stdout, "\nreport written to %s\n", *out)
	}

	basePath := *baseline
	if basePath == "" {
		basePath, err = pickBaseline(*dir, *out)
		if err != nil {
			fmt.Fprintf(stderr, "rtdvs-bench: %v\n", err)
			return 2
		}
	}
	if basePath == "" {
		fmt.Fprintln(stdout, "\nno baseline BENCH_*.json found; skipping regression gate")
		return 0
	}
	baseData, err := os.ReadFile(basePath)
	if err != nil {
		fmt.Fprintf(stderr, "rtdvs-bench: %v\n", err)
		return 2
	}
	var base Report
	if err := json.Unmarshal(baseData, &base); err != nil {
		fmt.Fprintf(stderr, "rtdvs-bench: baseline %s: %v\n", basePath, err)
		return 2
	}

	deltas := compare(&base, rep)
	fmt.Fprintf(stdout, "\ndelta vs %s (%d common benchmarks):\n", basePath, len(deltas))
	for _, d := range deltas {
		fmt.Fprintf(stdout, "  %-44s %14.1f -> %12.1f ns/op  %+6.1f%%\n", d.Name, d.Old, d.New, 100*d.Pct)
	}

	failures := gateFailures(deltas, gateRe, *threshold)
	if len(failures) > 0 {
		fmt.Fprintf(stderr, "\nrtdvs-bench: %d gated regression(s) above %.0f%%:\n", len(failures), 100**threshold)
		for _, d := range failures {
			fmt.Fprintf(stderr, "  %s: %.1f -> %.1f ns/op (%+.1f%%)\n", d.Name, d.Old, d.New, 100*d.Pct)
		}
		return 1
	}
	fmt.Fprintf(stdout, "\ngate %q: no ns/op regression above %.0f%%\n", *gate, 100**threshold)
	return 0
}

// procSuffix strips the -GOMAXPROCS suffix go test appends to benchmark
// names.
var procSuffix = regexp.MustCompile(`-\d+$`)

// parseBenchOutput extracts the benchmark lines and the goos/goarch/cpu
// header from standard `go test -bench` output. With -count > 1 the
// fastest ns/op line wins per benchmark.
func parseBenchOutput(out string) (*Report, error) {
	rep := &Report{}
	best := map[string]int{} // name -> index into rep.Benchmarks
	for _, line := range strings.Split(out, "\n") {
		line = strings.TrimSpace(line)
		switch {
		case strings.HasPrefix(line, "goos: "):
			rep.Goos = strings.TrimPrefix(line, "goos: ")
			continue
		case strings.HasPrefix(line, "goarch: "):
			rep.Goarch = strings.TrimPrefix(line, "goarch: ")
			continue
		case strings.HasPrefix(line, "cpu: "):
			rep.CPU = strings.TrimPrefix(line, "cpu: ")
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 {
			continue
		}
		b := Benchmark{Name: procSuffix.ReplaceAllString(fields[0], "")}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue // a Benchmark-prefixed log line, not a result
		}
		b.Iters = iters
		seen := false
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bad value %q in line %q", fields[i], line)
			}
			switch fields[i+1] {
			case "ns/op":
				b.NsOp, seen = v, true
			case "B/op":
				b.BOp = v
			case "allocs/op":
				b.AllocsOp = v
			}
		}
		if !seen {
			continue
		}
		if j, dup := best[b.Name]; dup {
			if b.NsOp < rep.Benchmarks[j].NsOp {
				rep.Benchmarks[j] = b
			}
			continue
		}
		best[b.Name] = len(rep.Benchmarks)
		rep.Benchmarks = append(rep.Benchmarks, b)
	}
	if len(rep.Benchmarks) == 0 {
		return nil, fmt.Errorf("no benchmark results in output")
	}
	return rep, nil
}

// benchNum extracts the trailing integer of a BENCH_*.json name (the PR
// number in the BENCH_PR<n>.json convention), or -1.
var benchNum = regexp.MustCompile(`(\d+)\.json$`)

// pickBaseline returns the newest prior baseline in dir: the
// BENCH_*.json with the highest numeric suffix, excluding the file the
// current run writes. Empty means no baseline exists yet.
func pickBaseline(dir, exclude string) (string, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return "", err
	}
	type cand struct {
		path string
		num  int
	}
	var cands []cand
	for _, m := range matches {
		if exclude != "" && filepath.Base(m) == filepath.Base(exclude) {
			continue
		}
		n := -1
		if s := benchNum.FindStringSubmatch(filepath.Base(m)); s != nil {
			n, _ = strconv.Atoi(s[1])
		}
		cands = append(cands, cand{m, n})
	}
	if len(cands) == 0 {
		return "", nil
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].num != cands[j].num {
			return cands[i].num > cands[j].num
		}
		return cands[i].path > cands[j].path
	})
	return cands[0].path, nil
}

// compare matches benchmarks by name and reports ns/op deltas, in the
// current report's order.
func compare(base, cur *Report) []Delta {
	old := map[string]float64{}
	for _, b := range base.Benchmarks {
		old[b.Name] = b.NsOp
	}
	var ds []Delta
	for _, b := range cur.Benchmarks {
		o, ok := old[b.Name]
		if !ok || o <= 0 {
			continue
		}
		ds = append(ds, Delta{Name: b.Name, Old: o, New: b.NsOp, Pct: (b.NsOp - o) / o})
	}
	return ds
}

// gateFailures returns the deltas that fail the gate: name matches the
// gate regexp and ns/op regressed by more than threshold.
func gateFailures(ds []Delta, gate *regexp.Regexp, threshold float64) []Delta {
	var out []Delta
	for _, d := range ds {
		if gate.MatchString(d.Name) && d.Pct > threshold {
			out = append(out, d)
		}
	}
	return out
}
