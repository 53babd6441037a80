// Command rtdvs-sim runs one RT-DVS simulation and reports energy, timing
// and deadline outcomes. The task set comes from a JSON file, an inline
// spec, or the paper's random generator.
//
// Examples:
//
//	rtdvs-sim -set "3:8,3:10,1:14" -policy laEDF -horizon 16 -trace
//	rtdvs-sim -n 8 -u 0.7 -seed 42 -policy ccEDF -exec c=0.9
//	rtdvs-sim -file tasks.json -machine machine2 -json
//
// Inline sets are comma-separated "WCET:period" pairs in milliseconds.
// JSON files hold an array of {"name": ..., "period": ..., "wcet": ...}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"math"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"rtdvs/internal/core"
	"rtdvs/internal/machine"
	"rtdvs/internal/obs"
	"rtdvs/internal/sched"
	"rtdvs/internal/sim"
	"rtdvs/internal/task"
	"rtdvs/internal/trace"
)

func main() {
	var (
		file     = flag.String("file", "", "JSON file with the task set")
		inline   = flag.String("set", "", `inline task set, e.g. "3:8,3:10,1:14" (WCET:period)`)
		n        = flag.Int("n", 0, "generate a random set with this many tasks")
		u        = flag.Float64("u", 0.7, "target utilization for -n")
		seed     = flag.Int64("seed", 1, "RNG seed for -n and uniform execution")
		policy   = flag.String("policy", "laEDF", "policy: "+strings.Join(core.ExtendedNames(), ", "))
		mname    = flag.String("machine", "machine0", "machine spec: "+strings.Join(machine.Names(), ", "))
		idle     = flag.Float64("idle", 0, "idle level factor in [0,1]")
		execSpec = flag.String("exec", "wcet", `execution model: "wcet", "c=<frac>", "uniform", "beta=<a>,<b>", "bimodal=<lo>,<hi>,<p>", or "hist=<w1>,..."`)
		horizon  = flag.Float64("horizon", 0, "simulated duration in ms (0 = 20×longest period)")
		overhead = flag.Bool("overhead", false, "model the K6-2+ switch stop intervals")
		showTr   = flag.Bool("trace", false, "print the execution trace")
		asJSON   = flag.Bool("json", false, "emit the result as JSON")
		check    = flag.Bool("check", false, "enable the runtime invariant checker (see internal/sim/invariant.go)")
		cores    = flag.Int("cores", 1, "number of identical cores (>1 selects the multi-core engine)")
		place    = flag.String("placement", "", "multi-core placement: "+strings.Join(sched.PlacementNames(), ", "))
	)
	var logOpts obs.LogOptions
	logOpts.RegisterFlags(flag.CommandLine)
	flag.Parse()
	logger, err := logOpts.NewLogger(os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rtdvs-sim: %v\n", err)
		os.Exit(2)
	}
	logger = logger.With("component", "rtdvs-sim")
	fatal := func(err error) {
		logger.Error("fatal", "err", err)
		os.Exit(1)
	}
	if err := validateFlags(*n, *cores, *u, *idle, *horizon); err != nil {
		fatal(err)
	}

	ts, err := loadTaskSet(*file, *inline, *n, *u, *seed)
	if err != nil {
		fatal(err)
	}
	spec := machine.ByName(*mname)
	if spec == nil {
		fatal(fmt.Errorf("unknown machine %q (have: %s)", *mname, strings.Join(machine.Names(), ", ")))
	}
	spec = spec.WithIdleLevel(*idle)
	p, err := core.ExtendedByName(*policy)
	if err != nil {
		fatal(err)
	}

	if *cores > 1 {
		if err := runMulti(logger, ts, spec, *cores, *policy, *place, *execSpec, *seed, *horizon, *overhead, *check, *showTr, *asJSON); err != nil {
			fatal(err)
		}
		return
	}

	exec, err := parseExec(*execSpec, *seed)
	if err != nil {
		fatal(err)
	}

	cfg := sim.Config{Tasks: ts, Machine: spec, Policy: p, Exec: exec, Horizon: *horizon, CheckInvariants: *check}
	if *overhead {
		oh := machine.K62SwitchOverhead
		cfg.Overhead = &oh
	}
	var rec trace.Recorder
	if *showTr {
		cfg.Recorder = &rec
	}
	res, err := sim.Run(cfg)
	if err != nil {
		fatal(err)
	}
	logger.Debug("simulation complete",
		"policy", res.Policy, "events", res.Events, "misses", res.MissCount())

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fatal(err)
		}
		return
	}

	fmt.Printf("task set: %s\n", ts)
	fmt.Printf("machine:  %s\n", spec)
	fmt.Printf("policy:   %s (guaranteed=%v)\n", res.Policy, res.Guaranteed)
	fmt.Printf("horizon:  %.6g ms\n", res.Horizon)
	fmt.Printf("energy:   %.6g (exec %.6g + idle %.6g), avg power %.4g\n",
		res.TotalEnergy, res.ExecEnergy, res.IdleEnergy, res.AvgPower())
	fmt.Printf("cycles:   %.6g in %.6g ms busy, %.6g ms idle, %d switches\n",
		res.CyclesDone, res.BusyTime, res.IdleTime, res.Switches)
	fmt.Printf("releases: %d, completions: %d, misses: %d\n",
		res.Releases, res.Completions, res.MissCount())
	for _, m := range res.Misses {
		fmt.Printf("  MISS task %d invocation %d at deadline %.4g (%.4g cycles left)\n",
			m.Task, m.Inv, m.Deadline, m.Remaining)
	}
	if *showTr {
		names := make([]string, ts.Len())
		for i := range names {
			names[i] = ts.Task(i).Name
		}
		fmt.Println()
		fmt.Print(trace.Render(rec.Segments(), trace.RenderOptions{Width: 72, TaskNames: names}))
	}
}

// runMulti executes one multi-core simulation and reports per-core and
// aggregate outcomes. The policy travels by name: partitioned
// placements instantiate it once per core, global placement requires a
// gang policy (gangStaticEDF, gangCCEDF, gangLAEDF).
func runMulti(logger *slog.Logger, ts *task.Set, spec *machine.Spec, cores int, policy, place, execSpec string, seed int64, horizon float64, overhead, check, showTr, asJSON bool) error {
	plc, err := sched.ParsePlacement(place)
	if err != nil {
		return err
	}
	if showTr {
		return fmt.Errorf("-trace supports uniprocessor runs only (a multi-core trace would interleave per-core segments)")
	}
	cfg := sim.MultiConfig{
		Tasks:           ts,
		Machine:         spec.WithCores(cores),
		Policy:          policy,
		Placement:       plc,
		Exec:            execSpec,
		Seed:            seed,
		Horizon:         horizon,
		CheckInvariants: check,
	}
	if overhead {
		oh := machine.K62SwitchOverhead
		cfg.Overhead = &oh
	}
	res, err := sim.RunMulti(cfg)
	if err != nil {
		return err
	}
	logger.Debug("simulation complete",
		"policy", res.Policy, "cores", cores, "misses", res.MissCount())

	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(res)
	}

	fmt.Printf("task set:  %s\n", ts)
	fmt.Printf("machine:   %s\n", cfg.Machine)
	fmt.Printf("policy:    %s ×%d cores, placement %s (guaranteed=%v, feasible=%v)\n",
		res.Policy, cores, plc, res.Guaranteed, res.Feasible)
	fmt.Printf("horizon:   %.6g ms\n", res.Horizon)
	fmt.Printf("energy:    %.6g (exec %.6g + idle %.6g), avg power %.4g\n",
		res.TotalEnergy, res.ExecEnergy, res.IdleEnergy, res.AvgPower())
	fmt.Printf("cycles:    %.6g in %.6g core·ms busy, %.6g core·ms idle, %d switches, %d migrations\n",
		res.CyclesDone, res.BusyTime, res.IdleTime, res.Switches, res.Migrations)
	fmt.Printf("releases:  %d, completions: %d, misses: %d\n",
		res.Releases, res.Completions, res.MissCount())
	for c := range res.PerCore {
		pc := &res.PerCore[c]
		if pc.Tasks != nil {
			fmt.Printf("  core %d: tasks %v, U=%.3f, energy %.6g, misses %d\n",
				c, pc.Tasks, pc.Util, pc.ExecEnergy+pc.IdleEnergy, pc.Misses)
		} else {
			fmt.Printf("  core %d: energy %.6g, misses %d\n",
				c, pc.ExecEnergy+pc.IdleEnergy, pc.Misses)
		}
	}
	for _, m := range res.Misses {
		fmt.Printf("  MISS task %d invocation %d at deadline %.4g (%.4g cycles left)\n",
			m.Task, m.Inv, m.Deadline, m.Remaining)
	}
	return nil
}

func loadTaskSet(file, inline string, n int, u float64, seed int64) (*task.Set, error) {
	switch {
	case file != "":
		data, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		var tasks []task.Task
		if err := json.Unmarshal(data, &tasks); err != nil {
			return nil, fmt.Errorf("parsing %s: %w", file, err)
		}
		return task.NewSet(tasks...)

	case inline != "":
		var tasks []task.Task
		for _, part := range strings.Split(inline, ",") {
			cw := strings.SplitN(strings.TrimSpace(part), ":", 2)
			if len(cw) != 2 {
				return nil, fmt.Errorf("bad task %q: want WCET:period", part)
			}
			c, err := strconv.ParseFloat(cw[0], 64)
			if err != nil {
				return nil, fmt.Errorf("bad WCET in %q: %w", part, err)
			}
			p, err := strconv.ParseFloat(cw[1], 64)
			if err != nil {
				return nil, fmt.Errorf("bad period in %q: %w", part, err)
			}
			tasks = append(tasks, task.Task{WCET: c, Period: p})
		}
		return task.NewSet(tasks...)

	case n > 0:
		g := task.Generator{N: n, Utilization: u, Rand: rand.New(rand.NewSource(seed))}
		return g.Generate()
	}
	return nil, fmt.Errorf("specify a task set with -file, -set, or -n")
}

// parseExec delegates to the shared parser; the HTTP API accepts the
// same specs (see internal/task.ParseExec).
func parseExec(spec string, seed int64) (task.ExecModel, error) {
	return task.ParseExec(spec, seed)
}

// validateFlags rejects NaN, infinite, and out-of-range numeric flags
// up front with actionable messages rather than failing obscurely deep
// in the simulator.
func validateFlags(n, cores int, u, idle, horizon float64) error {
	umax := 1.0
	if cores > 1 {
		umax = float64(cores)
	}
	switch {
	case n < 0:
		return fmt.Errorf("-n must be non-negative, got %d", n)
	case cores < 1 || cores > machine.MaxCores:
		return fmt.Errorf("-cores must lie in [1, %d], got %d", machine.MaxCores, cores)
	case n > 0 && (math.IsNaN(u) || math.IsInf(u, 0) || !(u > 0) || u > umax):
		return fmt.Errorf("-u must lie in (0, %g], got %v", umax, u)
	case math.IsNaN(idle) || math.IsInf(idle, 0) || idle < 0 || idle > 1:
		return fmt.Errorf("-idle must lie in [0, 1], got %v", idle)
	case math.IsNaN(horizon) || math.IsInf(horizon, 0) || horizon < 0:
		return fmt.Errorf("-horizon must be non-negative and finite, got %v", horizon)
	}
	return nil
}
