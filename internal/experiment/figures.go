package experiment

import (
	"context"
	"fmt"
	"strings"

	"rtdvs/internal/machine"
	"rtdvs/internal/sched"
	"rtdvs/internal/stats"
)

// Options tunes how much work a figure regeneration does. The zero value
// selects the defaults (20 sets per point, seed 1, full utilization axis).
// Every panel function runs under the context it takes first; when the
// context ends, the panel drains its worker pool and returns a
// *PartialError.
type Options struct {
	Sets    int
	Seed    int64
	Points  []float64 // utilization axis override
	Workers int
	// Checkpoint/Resume enable crash-safe journaling of the panel (see
	// Config.Checkpoint): Figures 9–13, Multicore, 16 and 17 journal one
	// panel to this path, so a caller that runs several panels gives
	// each its own file.
	Checkpoint string
	Resume     bool
}

func (o Options) config(base Config) Config {
	if o.Sets > 0 {
		base.Sets = o.Sets
	}
	base.Seed = o.Seed
	if o.Points != nil {
		base.Utilizations = o.Points
	}
	base.Workers = o.Workers
	base.Checkpoint = o.Checkpoint
	base.Resume = o.Resume
	return base
}

// Figure9 regenerates one panel of Figure 9: absolute energy consumption
// versus worst-case utilization for the given task count, all policies
// plus the bound, machine 0, perfect halt, tasks consuming full WCET.
func Figure9(ctx context.Context, nTasks int, o Options) (*Sweep, error) {
	return RunContext(ctx, o.config(Config{
		NTasks:  nTasks,
		Machine: machine.Machine0(),
		Exec:    WCETExec(),
	}))
}

// Figure10 regenerates one panel of Figure 10: normalized energy with an
// imperfect halt feature at the given idle level, 8 tasks, machine 0.
func Figure10(ctx context.Context, idleLevel float64, o Options) (*Sweep, error) {
	return RunContext(ctx, o.config(Config{
		NTasks:  8,
		Machine: machine.Machine0().WithIdleLevel(idleLevel),
		Exec:    WCETExec(),
	}))
}

// Figure11 regenerates one panel of Figure 11: normalized energy on the
// given platform specification, 8 tasks, perfect halt, full WCET.
func Figure11(ctx context.Context, spec *machine.Spec, o Options) (*Sweep, error) {
	return RunContext(ctx, o.config(Config{
		NTasks:  8,
		Machine: spec,
		Exec:    WCETExec(),
	}))
}

// Figure12 regenerates one panel of Figure 12: normalized energy when
// every invocation consumes the constant fraction c of its worst case,
// 8 tasks, machine 0.
func Figure12(ctx context.Context, c float64, o Options) (*Sweep, error) {
	return RunContext(ctx, o.config(Config{
		NTasks:  8,
		Machine: machine.Machine0(),
		Exec:    ConstantExec(c),
	}))
}

// Figure13 regenerates Figure 13: normalized energy with per-invocation
// computation drawn uniformly from (0, WCET], 8 tasks, machine 0.
func Figure13(ctx context.Context, o Options) (*Sweep, error) {
	return RunContext(ctx, o.config(Config{
		NTasks:  8,
		Machine: machine.Machine0(),
		Exec:    UniformExec(),
	}))
}

// Multicore regenerates the multiprocessor panel (an extension, not a
// figure from the paper): normalized energy versus total worst-case
// utilization on a `cores`-core machine 0 under partitioned-EDF with
// worst-fit-decreasing packing, 16 tasks, full WCET. The utilization
// axis is the uniprocessor axis scaled by the core count — total demand
// spans (0, m] — and the bound is the per-partition hull bound
// (bound.PartitionedEnergy). Near U = m the bin packing necessarily
// fails for some sets and the overflow cores miss deadlines, the
// multiprocessor analogue of the paper's high-U RM misses.
func Multicore(ctx context.Context, cores int, o Options) (*Sweep, error) {
	cfg := o.config(Config{
		NTasks:    16,
		Machine:   machine.Machine0(),
		Exec:      WCETExec(),
		Cores:     cores,
		Placement: sched.PartitionedWF,
		ExecSpec:  "wcet",
	})
	pts := cfg.Utilizations
	if pts == nil {
		pts = DefaultUtilizations()
	}
	scaled := make([]float64, len(pts))
	for i, u := range pts {
		scaled[i] = u * float64(cores)
	}
	cfg.Utilizations = scaled
	return RunContext(ctx, cfg)
}

// Render formats the sweep as a plain-text table, one row per utilization.
// When normalized is true the columns show energy relative to plain EDF
// (Figures 10–13); otherwise mean absolute energy (Figure 9).
func (s *Sweep) Render(title string, normalized bool, policies []string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n(machine=%s, %d tasks, %d sets/point, exec=%s)\n\n",
		title, s.Machine, s.NTasks, s.Sets, s.ExecDesc)
	var t stats.Table
	header := append([]string{"U"}, policies...)
	header = append(header, "bound")
	t.Header(header...)
	src := s.Energy
	bnd := s.Bound
	if normalized {
		src = s.Normalized
		bnd = s.BoundNorm
	}
	for i, u := range s.Utilizations {
		row := make([]string, 0, len(policies)+2)
		row = append(row, fmt.Sprintf("%.2f", u))
		for _, p := range policies {
			row = append(row, fmt.Sprintf("%.3f", src[p][i]))
		}
		row = append(row, fmt.Sprintf("%.3f", bnd[i]))
		t.Rowf(row...)
	}
	b.WriteString(t.String())

	var missNote []string
	for _, p := range policies {
		total := 0
		for _, m := range s.Misses[p] {
			total += m
		}
		if total > 0 {
			missNote = append(missNote, fmt.Sprintf("%s:%d", p, total))
		}
	}
	if len(missNote) > 0 {
		fmt.Fprintf(&b, "\ndeadline misses (RM-unschedulable sets at high U): %s\n",
			strings.Join(missNote, " "))
	}
	return b.String()
}
