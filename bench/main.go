// Command bench is the repository's system benchmark. It times four
// seeded workloads end to end through the code as shipped (the sim
// invariant checker is off outside `go test`), checks every output, and,
// with -trace 1, times each layer's public entry points to print the
// ladder from the end-to-end unit down to a heap operation.
//
// Usage, from the repository root:
//
//	go -C bench run . -seed 1                 # every workload, each in its own process
//	go -C bench run . -workload serve-batch   # one workload, in this process
//	go -C bench run . -trace 1                # the traced ladder
//	go -C bench run . -list                   # workloads and metrics
//	bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// A single-workload run prints its report and, as the last line, one JSON
// object with the keys correct, attempted, failed and metrics: the
// end-to-end metrics, or with -trace 1 the per-layer metrics. It exits 1
// when an output was wrong or an operation failed. See README.md.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"time"
)

// defaultSeconds is the measured time per workload when -seconds is not
// given; it matches run_seconds in BENCHMARK.json.
const defaultSeconds = 15

func main() {
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload to run, or all to run each in its own child process")
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", defaultSeconds, "seconds each workload measures")
	traceFlag := fs.Int("trace", 0, "1 runs the traced ladder and reports the per-layer metrics")
	list := fs.Bool("list", false, "print the workloads and metrics and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case fs.NArg() > 0:
		fmt.Fprintf(stderr, "bench: unexpected arguments %q\n", fs.Args())
		return 2
	case *list:
		writeList(stdout)
		return 0
	case *traceFlag != 0 && *traceFlag != 1:
		fmt.Fprintln(stderr, "bench: -trace must be 0 or 1")
		return 2
	case !(*seconds > 0) || math.IsInf(*seconds, 0):
		fmt.Fprintln(stderr, "bench: -seconds must be positive")
		return 2
	}
	o := options{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), trace: *traceFlag == 1}
	if *workload == "all" {
		return runAll(ctx, o, stdout, stderr)
	}
	if !knownWorkload(*workload) {
		fmt.Fprintf(stderr, "bench: unknown workload %q (try -list)\n", *workload)
		return 2
	}
	// A safety net: a 15 s run ends in about 30 s, and the deadline stays
	// well inside the three minutes a run may take.
	ctx, cancel := context.WithTimeout(ctx, 100*time.Second+2*o.seconds)
	defer cancel()
	res, err := runOne(ctx, *workload, o, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", *workload, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: encoding the result: %v\n", *workload, err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct || res.Failed > 0 {
		return 1
	}
	return 0
}

// runAll runs every workload in its own child process, one after the
// other, so each has the machine, its peak RSS and its GC state to
// itself, and then prints one table of all metrics.
func runAll(ctx context.Context, o options, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	traceArg := "0"
	if o.trace {
		traceArg = "1"
	}
	code := 0
	results := map[string]*result{}
	for _, wl := range workloads {
		var out bytes.Buffer
		cmd := exec.CommandContext(ctx, exe,
			"-workload", wl.Name,
			"-seed", strconv.FormatInt(o.seed, 10),
			"-seconds", strconv.FormatFloat(o.seconds.Seconds(), 'g', -1, 64),
			"-trace", traceArg)
		cmd.Stdout = io.MultiWriter(stdout, &out)
		cmd.Stderr = stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", wl.Name, err)
			code = 1
		}
		res, err := lastResult(out.Bytes())
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", wl.Name, err)
			code = 1
			continue
		}
		results[wl.Name] = res
		fmt.Fprintln(stdout)
	}
	metrics := endToEnd
	if o.trace {
		metrics = perLayer
	}
	fmt.Fprintf(stdout, "summary seed %d\n", o.seed)
	for _, wl := range workloads {
		res := results[wl.Name]
		if res == nil {
			continue
		}
		fmt.Fprintf(stdout, "%s correct=%v failed=%d/%d\n", wl.Name, res.Correct, res.Failed, res.Attempted)
		for _, mi := range metrics {
			v := res.Metrics[mi.Name]
			fmt.Fprintf(stdout, "  %-36s %14.4f %s\n", mi.Name, v.Value, v.Unit)
		}
	}
	return code
}

// lastResult parses the result object on the last line of a run's output.
func lastResult(out []byte) (*result, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if last == nil {
		return nil, errors.New("no output")
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return nil, fmt.Errorf("last line is not a result: %w", err)
	}
	return &res, nil
}
