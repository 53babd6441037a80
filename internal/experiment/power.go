package experiment

import (
	"context"
	"fmt"
	"strings"

	"rtdvs/internal/core"
	"rtdvs/internal/machine"
	"rtdvs/internal/rtos"
	"rtdvs/internal/sim"
	"rtdvs/internal/stats"
	"rtdvs/internal/task"
)

// Figure16Policies are the four curves the paper measures on the laptop.
var Figure16Policies = []string{"none", "staticRM", "ccEDF", "laEDF"}

// powerFrac is the fraction of its worst case every invocation of
// Figures 16 and 17 consumes.
const powerFrac = 0.9

// PowerSweep reports average power versus utilization, the quantity
// Figures 16 and 17 plot.
type PowerSweep struct {
	Title        string
	Unit         string
	Utilizations []float64
	Power        map[string][]float64
	Misses       map[string][]int
	Sets         int
}

// Figure16 regenerates the laptop power measurements: whole-system power
// in watts (display backlighting off) measured by the oscilloscope-style
// meter over the RTOS kernel, including the mandatory PowerNow! stop
// intervals. The kernel runs have no internal preemption point, so
// cancellation lands between jobs rather than inside one.
func Figure16(ctx context.Context, o Options) (*PowerSweep, error) {
	return powerSweep(ctx, "fig16", o)
}

// Figure17 regenerates the matching simulation: processor-only power in
// the simulator's native units, identical workload parameters. Except for
// the constant system overhead the curves match Figure 16, which is the
// paper's validation of its simulator.
func Figure17(ctx context.Context, o Options) (*PowerSweep, error) {
	return powerSweep(ctx, "fig17", o)
}

// powerSweep runs Figure 16 (kind "fig16") or 17 ("fig17"). The two
// share one workload so they stay parameter-identical, as the paper
// stresses — 5 tasks, each consuming 90% of its worst case, on the
// 2-voltage K6-2+ specification — and the utilization sweeps' job grid,
// seeding and journal.
func powerSweep(ctx context.Context, kind string, o Options) (*PowerSweep, error) {
	cfg, err := normalize(o.config(Config{
		Policies: Figure16Policies,
		NTasks:   5,
		Machine:  machine.LaptopK62(),
		Exec:     ConstantExec(powerFrac),
	}))
	if err != nil {
		return nil, err
	}
	system := kind == "fig16"
	outs := newOuts(len(cfg.Utilizations)*cfg.Sets, len(cfg.Policies))
	done := make([]bool, len(outs))
	journal, err := openJournal(cfg, kind, cfg.Policies, outs, done)
	if err != nil {
		return nil, err
	}
	defer journal.Close()

	err = runPool(ctx, cfg.Workers, nil, done, func() (func(int) error, error) {
		// The simulated path reuses one runner per worker; the system
		// path builds a fresh kernel per run (the RTOS substrate has no
		// reuse API).
		runner := sim.NewRunner()
		pols, err := newPolicies(cfg.Policies)
		if err != nil {
			return nil, err
		}
		return func(j int) error {
			ts, _, horizon, err := jobSet(cfg, j)
			if err != nil {
				return err
			}
			out := &outs[j]
			for pi, p := range pols {
				if system {
					out.energy[pi], out.misses[pi], err = runSystemPower(ts, p, horizon)
				} else {
					out.energy[pi], out.misses[pi], err = runSimPower(ctx, runner, ts, p, horizon)
				}
				if err != nil {
					return err
				}
			}
			return journal.record(j, out)
		}, nil
	})
	if err != nil {
		return nil, err
	}

	nu := len(cfg.Utilizations)
	ps := &PowerSweep{
		Title:        "Figure 17: power consumption on simulated platform",
		Unit:         "units",
		Utilizations: append([]float64(nil), cfg.Utilizations...),
		Power:        map[string][]float64{},
		Misses:       map[string][]int{},
		Sets:         cfg.Sets,
	}
	if system {
		ps.Title = "Figure 16: power consumption on actual platform"
		ps.Unit = "W"
	}
	for pi, p := range cfg.Policies {
		ps.Power[p] = make([]float64, nu)
		ps.Misses[p] = make([]int, nu)
		for ui := 0; ui < nu; ui++ {
			var acc stats.Accumulator
			for si := 0; si < cfg.Sets; si++ {
				out := &outs[ui*cfg.Sets+si]
				acc.Add(out.energy[pi])
				ps.Misses[p][ui] += out.misses[pi]
			}
			ps.Power[p][ui] = acc.Mean()
		}
	}
	return ps, nil
}

// runSystemPower measures whole-system watts with the RTOS kernel, the
// PowerNow!-style stop intervals, and the Table 1 component model
// (screen off, disk standby, as in the paper's measurement runs).
func runSystemPower(ts *task.Set, p core.Policy, horizon float64) (watts float64, misses int, err error) {
	k, err := rtos.NewKernel(machine.LaptopK62(), machine.K62SwitchOverhead, p)
	if err != nil {
		return 0, 0, err
	}
	k.SetAdmitAll(true) // high-U RM sets run unguaranteed, as measured
	for i := 0; i < ts.Len(); i++ {
		t := ts.Task(i)
		wcet := t.WCET
		_, err := k.AddTask(rtos.TaskConfig{
			Name:   t.Name,
			Period: t.Period,
			WCET:   wcet,
			Work:   func(int) float64 { return powerFrac * wcet },
		}, rtos.AddOptions{Immediate: true})
		if err != nil {
			return 0, 0, err
		}
	}
	meter := rtos.NewPowerMeter(k.CPU(), rtos.DefaultSystemPower(), false, false)
	meter.Mark(k.Now())
	k.Step(horizon)
	return meter.Average(k.Now()), len(k.Misses()), nil
}

// runSimPower measures processor-only average power with the simulator.
// The runner and policy are reused across calls; the caller owns both.
func runSimPower(ctx context.Context, runner *sim.Runner, ts *task.Set, p core.Policy, horizon float64) (power float64, misses int, err error) {
	res, err := runner.RunContext(ctx, sim.Config{
		Tasks:   ts,
		Machine: machine.LaptopK62(),
		Policy:  p,
		Exec:    task.ConstantFraction{C: powerFrac},
		Horizon: horizon,
	})
	if err != nil {
		return 0, 0, err
	}
	return res.AvgPower(), res.MissCount(), nil
}

// Render formats the power sweep as a plain-text table.
func (s *PowerSweep) Render(policies []string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n(5 tasks, c=0.9, k6-2+ spec, %d sets/point, %s)\n\n", s.Title, s.Sets, s.Unit)
	var t stats.Table
	t.Header(append([]string{"U"}, policies...)...)
	for i, u := range s.Utilizations {
		row := []string{fmt.Sprintf("%.2f", u)}
		for _, p := range policies {
			row = append(row, fmt.Sprintf("%.2f", s.Power[p][i]))
		}
		t.Rowf(row...)
	}
	b.WriteString(t.String())
	return b.String()
}
