// Command rtdvs-experiments regenerates the tables and figures of the
// paper's evaluation (Sections 3 and 4) as plain-text data tables.
//
// Usage:
//
//	rtdvs-experiments [-exp all|table1|table4|fig9|fig10|fig11|fig12|fig13|fig16|fig17|robustness|multicore]
//	                  [-sets N] [-seed S] [-workers W] [-step U]
//	                  [-checkpoint f [-resume]] [-timeout d]
//	                  [-cpuprofile f] [-memprofile f]
//
// -checkpoint journals every completed job of the utilization-axis
// panels (figures 9-13, 16, 17 and multicore), one file per panel, so
// an interrupted run continues with -resume. The robustness experiment
// has no journal and refuses -checkpoint.
//
// The profiling flags write standard pprof profiles of the run
// (`go tool pprof` reads them), which is how the simulator hot path is
// profiled under a realistic full-sweep workload.
//
// The robustness experiment is not a figure from the paper: it sweeps the
// injected WCET-overrun probability and reports miss rate, normalized
// energy and containment behavior per policy (see internal/fault and the
// Robustness section of README.md), then runs the policy × fault-regime
// grid on the rtos kernel with the load shedder armed (miss rate, energy,
// containment latency, shed counts per regime).
//
// Each figure's rows are averaged over -sets random task sets per
// utilization point (the paper averages hundreds; the default here is 20
// to keep the full run under a minute — raise it for smoother curves).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"rtdvs/internal/core"
	"rtdvs/internal/experiment"
	"rtdvs/internal/machine"
	"rtdvs/internal/obs"
)

func main() {
	exp := flag.String("exp", "all", "experiment to regenerate")
	sets := flag.Int("sets", 20, "random task sets per utilization point")
	seed := flag.Int64("seed", 1, "base RNG seed")
	workers := flag.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
	step := flag.Float64("step", 0.05, "utilization axis step")
	format := flag.String("format", "text", "output format: text, csv, json")
	timeout := flag.Duration("timeout", 0, "abort the run after this long (0 = no limit)")
	checkpoint := flag.String("checkpoint", "", "journal completed sweep jobs, one file per panel derived from this path (fig9-13, fig16, fig17, multicore; not robustness)")
	resume := flag.Bool("resume", false, "skip jobs already recorded in the -checkpoint journal")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	var logOpts obs.LogOptions
	logOpts.RegisterFlags(flag.CommandLine)
	flag.Parse()
	logger, err := logOpts.NewLogger(os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rtdvs-experiments: %v\n", err)
		os.Exit(2)
	}
	logger = logger.With("component", "rtdvs-experiments")
	fatal := func(err error) {
		logger.Error("fatal", "err", err)
		os.Exit(1)
	}
	if err := validateFlags(*exp, *sets, *step, *workers, *timeout, *checkpoint, *resume); err != nil {
		fatal(err)
	}
	switch *format {
	case "text", "csv", "json":
	default:
		fatal(fmt.Errorf("unknown format %q", *format))
	}

	// Interrupts and -timeout cancel the sweep cooperatively: workers
	// drain, completed jobs are already journaled when -checkpoint is
	// set, and the process reports the partial progress.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			runtime.GC() // materialize the final live set
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
		}()
	}

	o := experiment.Options{Sets: *sets, Seed: *seed, Workers: *workers, Points: utilizationAxis(*step)}
	all := core.Names()

	// panel derives per-panel options: figures with several panels each
	// get their own journal file ("sweeps.ckpt" -> "sweeps-fig9-n5.ckpt").
	panel := func(name string) experiment.Options {
		po := o
		if *checkpoint != "" {
			po.Checkpoint = panelCheckpoint(*checkpoint, name)
			po.Resume = *resume
		}
		return po
	}
	// fail reports errors, distinguishing a cancelled sweep (partial
	// progress, journaled when checkpointing) from a hard failure.
	fail := func(err error) {
		var pe *experiment.PartialError
		if errors.As(err, &pe) && *checkpoint != "" {
			fatal(fmt.Errorf("%w (completed jobs are journaled; rerun with -resume to continue)", err))
		}
		fatal(err)
	}

	emit := func(sw *experiment.Sweep, title string, normalized bool) {
		switch *format {
		case "csv":
			fmt.Printf("# %s\n", title)
			if err := sw.WriteCSV(os.Stdout, normalized, all); err != nil {
				fatal(err)
			}
		case "json":
			if err := sw.WriteJSON(os.Stdout); err != nil {
				fatal(err)
			}
		default:
			fmt.Println(sw.Render(title, normalized, all))
			fmt.Println()
		}
	}
	emitPower := func(ps *experiment.PowerSweep) {
		switch *format {
		case "csv":
			fmt.Printf("# %s\n", ps.Title)
			if err := ps.WriteCSV(os.Stdout, experiment.Figure16Policies); err != nil {
				fatal(err)
			}
		case "json":
			if err := ps.WriteJSON(os.Stdout); err != nil {
				fatal(err)
			}
		default:
			fmt.Println(ps.Render(experiment.Figure16Policies))
		}
	}

	run := func(name string) {
		logger.Debug("running experiment", "name", name)
		switch name {
		case "table1":
			fmt.Println(experiment.Table1())

		case "table4":
			rows, err := experiment.Table4()
			if err != nil {
				fatal(err)
			}
			fmt.Println(experiment.RenderTable4(rows))

		case "fig9":
			for _, n := range []int{5, 10, 15} {
				sw, err := experiment.Figure9(ctx, n, panel(fmt.Sprintf("fig9-n%d", n)))
				if err != nil {
					fail(err)
				}
				emit(sw, fmt.Sprintf("Figure 9: energy consumption with %d tasks", n), false)
			}

		case "fig10":
			for _, lvl := range []float64{0.01, 0.1, 1.0} {
				sw, err := experiment.Figure10(ctx, lvl, panel(fmt.Sprintf("fig10-idle%g", lvl)))
				if err != nil {
					fail(err)
				}
				emit(sw, fmt.Sprintf("Figure 10: normalized energy, idle level %g", lvl), true)
			}

		case "fig11":
			for _, spec := range []*machine.Spec{machine.Machine0(), machine.Machine1(), machine.Machine2()} {
				sw, err := experiment.Figure11(ctx, spec, panel("fig11-"+spec.Name))
				if err != nil {
					fail(err)
				}
				emit(sw, fmt.Sprintf("Figure 11: normalized energy on %s", spec.Name), true)
			}

		case "fig12":
			for _, c := range []float64{0.9, 0.7, 0.5} {
				sw, err := experiment.Figure12(ctx, c, panel(fmt.Sprintf("fig12-c%g", c)))
				if err != nil {
					fail(err)
				}
				emit(sw, fmt.Sprintf("Figure 12: normalized energy, c=%g", c), true)
			}

		case "fig13":
			sw, err := experiment.Figure13(ctx, panel("fig13"))
			if err != nil {
				fail(err)
			}
			emit(sw, "Figure 13: normalized energy, uniform computation", true)

		case "fig16":
			ps, err := experiment.Figure16(ctx, panel("fig16"))
			if err != nil {
				fail(err)
			}
			emitPower(ps)

		case "fig17":
			ps, err := experiment.Figure17(ctx, panel("fig17"))
			if err != nil {
				fail(err)
			}
			emitPower(ps)

		case "multicore":
			for _, m := range []int{2, 4} {
				sw, err := experiment.Multicore(ctx, m, panel(fmt.Sprintf("multicore-m%d", m)))
				if err != nil {
					fail(err)
				}
				emit(sw, fmt.Sprintf("Multicore: normalized energy, %d cores, partitioned-EDF (worst-fit)", m), true)
			}

		case "robustness":
			sw, err := experiment.Robustness(ctx, experiment.RobustnessConfig{
				Sets: *sets, Seed: *seed, Workers: *workers,
			})
			if err != nil {
				fail(err)
			}
			switch *format {
			case "csv":
				if err := sw.WriteCSV(os.Stdout, nil); err != nil {
					fatal(err)
				}
			case "json":
				if err := sw.WriteJSON(os.Stdout); err != nil {
					fatal(err)
				}
			default:
				fmt.Println(sw.Render(nil))
			}
			grid, err := experiment.Grid(ctx, experiment.GridConfig{
				Sets: *sets, Seed: *seed, Workers: *workers,
			})
			if err != nil {
				fail(err)
			}
			fmt.Println()
			switch *format {
			case "csv":
				if err := grid.WriteCSV(os.Stdout); err != nil {
					fatal(err)
				}
			case "json":
				if err := grid.WriteJSON(os.Stdout); err != nil {
					fatal(err)
				}
			default:
				fmt.Println(grid.Render())
			}

		default:
			fatal(fmt.Errorf("unknown experiment %q", name))
		}
	}

	if *exp == "all" {
		for _, name := range strings.Split("table1 table4 fig9 fig10 fig11 fig12 fig13 fig16 fig17 robustness multicore", " ") {
			run(name)
			fmt.Println()
		}
		return
	}
	run(*exp)
}

// validateFlags rejects nonsensical flags up front with actionable
// messages instead of hanging, spinning, silently producing empty
// sweeps, or silently running without the journal -checkpoint asked
// for.
func validateFlags(exp string, sets int, step float64, workers int, timeout time.Duration, checkpoint string, resume bool) error {
	switch {
	case sets <= 0:
		return fmt.Errorf("-sets must be positive, got %d", sets)
	case math.IsNaN(step) || math.IsInf(step, 0):
		return fmt.Errorf("-step must be finite, got %v", step)
	case !(step > 0) || step > 1:
		return fmt.Errorf("-step must lie in (0, 1], got %v", step)
	case workers < 0:
		return fmt.Errorf("-workers must be non-negative, got %d", workers)
	case timeout < 0:
		return fmt.Errorf("-timeout must be non-negative, got %v", timeout)
	case resume && checkpoint == "":
		return fmt.Errorf("-resume requires -checkpoint")
	case checkpoint != "" && exp == "robustness":
		return fmt.Errorf("-checkpoint journals the utilization-axis panels only; -exp robustness has no journal")
	}
	return nil
}

// utilizationAxis returns the points step, 2·step, … up to 1. Point i
// is computed as i·step, not by repeated addition, so the default step
// reproduces experiment.DefaultUtilizations bit for bit.
func utilizationAxis(step float64) []float64 {
	var points []float64
	for i := 1; float64(i)*step <= 1.0+1e-9; i++ {
		points = append(points, float64(i)*step)
	}
	return points
}

// panelCheckpoint derives a per-panel journal path from the base
// -checkpoint path: "sweeps.ckpt" + "fig9-n5" -> "sweeps-fig9-n5.ckpt".
func panelCheckpoint(base, panel string) string {
	ext := filepath.Ext(base)
	return strings.TrimSuffix(base, ext) + "-" + panel + ext
}
