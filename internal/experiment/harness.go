// Package experiment regenerates the paper's evaluation: every figure and
// table of Sections 3 and 4 has a function here that sweeps worst-case
// utilization over randomly generated task sets (averaging hundreds of
// sets per point, as the paper does) and reports energy per policy
// together with the theoretical lower bound.
package experiment

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"rtdvs/internal/bound"
	"rtdvs/internal/core"
	"rtdvs/internal/machine"
	"rtdvs/internal/sched"
	"rtdvs/internal/sim"
	"rtdvs/internal/stats"
	"rtdvs/internal/task"
)

// ExecFactory builds the actual-computation model for one generated task
// set; r is a dedicated, deterministic source for that set.
type ExecFactory func(r *rand.Rand) task.ExecModel

// WCETExec makes every invocation use its worst case (Figures 9–11).
func WCETExec() ExecFactory {
	return func(*rand.Rand) task.ExecModel { return task.FullWCET{} }
}

// ConstantExec makes every invocation use fraction c of its worst case
// (Figures 12, 16, 17).
func ConstantExec(c float64) ExecFactory {
	return func(*rand.Rand) task.ExecModel { return task.ConstantFraction{C: c} }
}

// UniformExec draws each invocation uniformly from (0, WCET] (Figure 13).
func UniformExec() ExecFactory {
	return func(r *rand.Rand) task.ExecModel { return task.UniformFraction{Lo: 0, Hi: 1, Rand: r} }
}

// Config parameterizes a utilization sweep.
type Config struct {
	// Policies to evaluate; nil means core.Names(). The plain-EDF
	// baseline is always run (it normalizes the results and anchors the
	// lower bound), whether or not it is listed.
	Policies []string
	// NTasks is the number of tasks per generated set.
	NTasks int
	// Machine is the platform; nil means machine 0.
	Machine *machine.Spec
	// Exec builds the actual-computation model; nil means full WCET.
	Exec ExecFactory
	// Utilizations are the worst-case utilization targets; nil means
	// 0.05..1.00 in steps of 0.05.
	Utilizations []float64
	// Sets is the number of random task sets per utilization (default 20).
	Sets int
	// Seed makes the sweep reproducible.
	Seed int64
	// Horizon is the simulated duration per run; 0 selects
	// 10 × the longest period of each set.
	Horizon float64
	// Workers bounds concurrency; 0 means GOMAXPROCS.
	Workers int
	// Cores, when above 1, runs every simulation on a multi-core copy of
	// Machine (Machine.WithCores) under the partitioned Placement; 0 or 1
	// keeps the paper's uniprocessor sweeps byte-identical. Multi-core
	// sweeps take their execution model from ExecSpec, not Exec.
	Cores int
	// Placement selects the partitioned packing for multi-core sweeps
	// (first-fit or worst-fit decreasing). Global placement needs a gang
	// policy rail and has no per-policy baseline here; run it through the
	// sim API instead.
	Placement sched.Placement
	// ExecSpec is the task.ParseExec model specification multi-core
	// sweeps construct per-core execution models from ("" = full WCET).
	// Ignored when Cores <= 1.
	ExecSpec string
	// Checkpoint, when non-empty, is the path of an append-only journal
	// (internal/checkpoint) that records each completed (utilization,
	// set) job — every policy's energy and miss count plus the bound —
	// as it finishes, fsync'd per record. Without Resume the file is
	// truncated and the sweep starts fresh.
	Checkpoint string
	// Resume loads the journal at Checkpoint before running, verifies it
	// was written by an identically-parameterized sweep, and skips the
	// jobs it records. Per-job seeding is deterministic, so a resumed
	// sweep is bit-identical to an uninterrupted one.
	Resume bool
	// Metrics optionally reports sweep progress (jobs scheduled, done,
	// replayed; simulations and misses) to an obs registry. Nil disables
	// reporting; results are identical either way.
	Metrics *Metrics
}

// harnessOut is one job's scalar outputs: each worker writes only its
// own preallocated slot (no locking, no shared accumulators), and a
// single sequential fold afterwards adds the slots in (utilization, set,
// policy) order. That order is exactly what one worker draining the job
// channel produces, so the streaming means are bit-identical for any
// worker count — and identical again when slots are replayed from a
// checkpoint journal instead of recomputed.
type harnessOut struct {
	ok     bool
	energy []float64 // per policy, indexed like policies
	misses []int
	bnd    float64
}

// Sweep is the result of a utilization sweep: one row per utilization,
// one column per policy.
type Sweep struct {
	Machine      string
	NTasks       int
	Sets         int
	ExecDesc     string
	Utilizations []float64
	// Energy is the mean absolute energy per policy (cycle·V² units).
	Energy map[string][]float64
	// Normalized is the mean per-set energy ratio versus plain EDF.
	Normalized map[string][]float64
	// Bound and BoundNorm are the theoretical lower bound (absolute and
	// normalized against plain EDF).
	Bound     []float64
	BoundNorm []float64
	// Misses counts deadline misses per policy across all sets at each
	// utilization. RT-DVS policies miss only when the plain scheduler
	// itself cannot schedule the set (high-U RM).
	Misses map[string][]int
}

// DefaultUtilizations returns the paper's x-axis: 0.05 to 1.00.
func DefaultUtilizations() []float64 {
	us := make([]float64, 20)
	for i := range us {
		us[i] = 0.05 * float64(i+1)
	}
	return us
}

// Run executes the sweep.
func Run(cfg Config) (*Sweep, error) {
	return RunContext(context.Background(), cfg)
}

// normalize applies Config defaults and validates the fields every
// entry point (RunContext, RunJobs, FoldJobs, Header) depends on, so
// the grid geometry and per-job seeding are identical no matter which
// entry point — local pool, checkpoint replay, or remote shard —
// executes a job.
func normalize(cfg Config) (Config, error) {
	if cfg.Policies == nil {
		cfg.Policies = core.Names()
	}
	if cfg.NTasks <= 0 {
		return cfg, fmt.Errorf("experiment: NTasks must be positive, got %d", cfg.NTasks)
	}
	if cfg.Machine == nil {
		cfg.Machine = machine.Machine0()
	}
	if cfg.Exec == nil {
		cfg.Exec = WCETExec()
	}
	if cfg.Utilizations == nil {
		cfg.Utilizations = DefaultUtilizations()
	}
	if cfg.Sets <= 0 {
		cfg.Sets = 20
	}
	if cfg.Cores > 1 {
		if cfg.Cores > machine.MaxCores {
			return cfg, fmt.Errorf("experiment: Cores %d exceeds machine.MaxCores %d", cfg.Cores, machine.MaxCores)
		}
		cfg.Machine = cfg.Machine.WithCores(cfg.Cores)
	}
	if cfg.Machine.NumCores() > 1 {
		if cfg.Placement == sched.Global {
			return cfg, fmt.Errorf("experiment: global placement has no per-policy baseline; sweeps support partitioned placements only")
		}
		if _, err := task.ParseExec(cfg.ExecSpec, 1); err != nil {
			return cfg, err
		}
	}
	return cfg, nil
}

// execDesc renders the execution model identity for headers and sweep
// results: the factory's model for uniprocessor sweeps, the parsed
// ExecSpec model for multi-core sweeps (which never invoke the
// factory). cfg must be normalized, so the parse cannot fail.
func execDesc(cfg Config) string {
	if cfg.Machine.NumCores() > 1 {
		m, err := task.ParseExec(cfg.ExecSpec, 1)
		if err != nil {
			return cfg.ExecSpec
		}
		return m.String()
	}
	return cfg.Exec(rand.New(rand.NewSource(1))).String()
}

// jobRunner bundles the reusable per-worker simulation state: one
// scalar simulator, one multi-core runner, and cached policy instances,
// all reset via Runner reuse and Policy.Attach between runs, so a sweep
// of hundreds of simulations allocates per worker (or per shard), not
// per run.
type jobRunner struct {
	runner *sim.Runner
	pcache map[string]core.Policy

	// multi is the multi-core engine (Cores > 1), created on first use.
	multi *sim.MultiRunner
}

func newJobRunner() *jobRunner {
	return &jobRunner{
		runner: sim.NewRunner(),
		pcache: map[string]core.Policy{},
	}
}

// runOne executes flat job j (= ui*Sets+si) of cfg's grid into out.
// cfg must be normalized and policies must include the baseline. The
// computation — per-job seeding included — is a pure function of
// (cfg, j), which is what makes local, checkpoint-replayed, and
// remotely-sharded executions of the same job bit-identical.
func (jr *jobRunner) runOne(ctx context.Context, cfg Config, policies []string, baseIdx, j int, out *harnessOut) error {
	ui, si := j/cfg.Sets, j%cfg.Sets
	u := cfg.Utilizations[ui]
	seed := cfg.Seed + int64(ui)*1_000_003 + int64(si)*7919
	r := rand.New(rand.NewSource(seed))
	g := task.Generator{N: cfg.NTasks, Utilization: u, Rand: r}
	ts, err := g.Generate()
	if err != nil {
		return err
	}
	horizon := cfg.Horizon
	if horizon <= 0 {
		horizon = 10 * ts.MaxPeriod()
	}
	if cfg.Machine.NumCores() > 1 {
		return jr.runOneMulti(ctx, cfg, policies, baseIdx, seed, ts, horizon, out)
	}

	var baseCycles float64
	for pi, pname := range policies {
		p := jr.pcache[pname]
		if p == nil {
			p, err = core.ByName(pname)
			if err != nil {
				return err
			}
			jr.pcache[pname] = p
		}
		// Each policy sees the same per-set randomness for its
		// execution-time draws.
		execR := rand.New(rand.NewSource(seed ^ 0x5DEECE66D))
		res, err := jr.runner.RunContext(ctx, sim.Config{
			Tasks:   ts,
			Machine: cfg.Machine,
			Policy:  p,
			Exec:    cfg.Exec(execR),
			Horizon: horizon,
		})
		if err != nil {
			return err
		}
		// The result aliases the runner's buffers; pull out the
		// scalars before the next run clobbers it.
		cfg.Metrics.simRun(res.MissCount())
		out.energy[pi] = res.TotalEnergy
		out.misses[pi] = res.MissCount()
		if pi == baseIdx {
			baseCycles = res.CyclesDone
		}
	}
	bnd, err := bound.Energy(cfg.Machine, baseCycles, horizon)
	if err != nil {
		return err
	}
	out.bnd = bnd
	out.ok = true
	return nil
}

// runOneMulti is runOne's multi-core tail: the same per-job seeding and
// policy order, each policy simulated as a partitioned multi-core run,
// and the lower bound computed per partition (the per-core hull bounds
// sum — a statically partitioned system cannot shift work across
// cores). Policies are resolved by name inside the MultiRunner, which
// builds one instance per core.
func (jr *jobRunner) runOneMulti(ctx context.Context, cfg Config, policies []string, baseIdx int, seed int64, ts *task.Set, horizon float64, out *harnessOut) error {
	if jr.multi == nil {
		jr.multi = sim.NewMultiRunner()
	}
	var coreCycles []float64
	for pi, pname := range policies {
		res, err := jr.multi.RunContext(ctx, sim.MultiConfig{
			Tasks:     ts,
			Machine:   cfg.Machine,
			Policy:    pname,
			Placement: cfg.Placement,
			Exec:      cfg.ExecSpec,
			Seed:      seed ^ 0x5DEECE66D,
			Horizon:   horizon,
		})
		if err != nil {
			return err
		}
		cfg.Metrics.simRun(res.MissCount())
		out.energy[pi] = res.TotalEnergy
		out.misses[pi] = res.MissCount()
		if pi == baseIdx {
			coreCycles = make([]float64, len(res.PerCore))
			for c := range res.PerCore {
				coreCycles[c] = res.PerCore[c].CyclesDone
			}
		}
	}
	bnd, err := bound.PartitionedEnergy(cfg.Machine, coreCycles, horizon)
	if err != nil {
		return err
	}
	out.bnd = bnd
	out.ok = true
	return nil
}

// RunContext executes the sweep under ctx. Cancellation drains the
// worker pool promptly (each in-flight simulation stops at its next
// cooperative check), leaks no goroutines, and returns a *PartialError;
// with checkpointing enabled the completed jobs are already journaled,
// so a later Resume run picks up where the cancelled one stopped.
func RunContext(ctx context.Context, cfg Config) (*Sweep, error) {
	cfg, err := normalize(cfg)
	if err != nil {
		return nil, err
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	policies := ensureBaseline(cfg.Policies)
	np := len(policies)
	baseIdx := policyIndex(policies, "none")

	outs := make([]harnessOut, len(cfg.Utilizations)*cfg.Sets)
	for i := range outs {
		outs[i] = harnessOut{energy: make([]float64, np), misses: make([]int, np)}
	}

	// Checkpointing: open (or resume) the journal, replay completed jobs
	// into their slots, and journal each job as its worker finishes it.
	var journal *harnessJournal
	if cfg.Checkpoint != "" {
		var err error
		journal, err = openHarnessJournal(cfg, policies, outs)
		if err != nil {
			return nil, err
		}
		defer journal.Close()
	}
	skip := make([]bool, len(outs))
	for i := range outs {
		skip[i] = outs[i].ok
		if skip[i] {
			cfg.Metrics.jobReplayed()
		}
	}
	cfg.Metrics.jobsPlanned(len(outs))

	jobs := make(chan int)
	var mu sync.Mutex
	var wg sync.WaitGroup
	var firstErr error

	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}

	// Per-job results are pure functions of (cfg, j), so the fold is
	// unchanged by worker count or arrival order.
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			jr := newJobRunner()
			for j := range jobs {
				if ctx.Err() != nil {
					continue // drain the channel without doing work
				}
				if err := jr.runOne(ctx, cfg, policies, baseIdx, j, &outs[j]); err != nil {
					if !skippable(err) {
						fail(err)
					}
					continue
				}
				cfg.Metrics.jobDone()
				if journal != nil {
					if err := journal.record(j/cfg.Sets, j%cfg.Sets, &outs[j]); err != nil {
						fail(err)
					}
				}
			}
		}()
	}

	feed(ctx, jobs, len(outs), skip)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		done := 0
		for i := range outs {
			if outs[i].ok {
				done++
			}
		}
		return nil, &PartialError{Done: done, Total: len(outs), Cause: err}
	}

	return fold(cfg, policies, baseIdx, outs), nil
}

// fold adds the completed job slots in (utilization, set, policy)
// order — exactly what one worker draining the job channel produces —
// so the streaming means are bit-identical for any worker count, when
// slots are replayed from a checkpoint journal, and when they were
// computed by remote shard workers (internal/fabric). cfg must be
// normalized.
func fold(cfg Config, policies []string, baseIdx int, outs []harnessOut) *Sweep {
	nu := len(cfg.Utilizations)
	type cell struct {
		energy map[string]*stats.Accumulator
		norm   map[string]*stats.Accumulator
		bnd    *stats.Accumulator
		bndN   *stats.Accumulator
		misses map[string]int
	}
	cells := make([]cell, nu)
	for i := range cells {
		cells[i] = cell{
			energy: map[string]*stats.Accumulator{},
			norm:   map[string]*stats.Accumulator{},
			bnd:    &stats.Accumulator{},
			bndN:   &stats.Accumulator{},
			misses: map[string]int{},
		}
		for _, p := range policies {
			cells[i].energy[p] = &stats.Accumulator{}
			cells[i].norm[p] = &stats.Accumulator{}
		}
	}

	for ui := 0; ui < nu; ui++ {
		c := &cells[ui]
		for si := 0; si < cfg.Sets; si++ {
			out := &outs[ui*cfg.Sets+si]
			if !out.ok {
				continue
			}
			baseE := out.energy[baseIdx]
			for pi, pname := range policies {
				c.energy[pname].Add(out.energy[pi])
				if baseE > 0 {
					c.norm[pname].Add(out.energy[pi] / baseE)
				}
				c.misses[pname] += out.misses[pi]
			}
			c.bnd.Add(out.bnd)
			if baseE > 0 {
				c.bndN.Add(out.bnd / baseE)
			}
		}
	}

	sw := &Sweep{
		Machine:      cfg.Machine.Name,
		NTasks:       cfg.NTasks,
		Sets:         cfg.Sets,
		ExecDesc:     execDesc(cfg),
		Utilizations: append([]float64(nil), cfg.Utilizations...),
		Energy:       map[string][]float64{},
		Normalized:   map[string][]float64{},
		Bound:        make([]float64, nu),
		BoundNorm:    make([]float64, nu),
		Misses:       map[string][]int{},
	}
	for _, p := range policies {
		sw.Energy[p] = make([]float64, nu)
		sw.Normalized[p] = make([]float64, nu)
		sw.Misses[p] = make([]int, nu)
	}
	for i := range cells {
		for _, p := range policies {
			sw.Energy[p][i] = cells[i].energy[p].Mean()
			sw.Normalized[p][i] = cells[i].norm[p].Mean()
			sw.Misses[p][i] = cells[i].misses[p]
		}
		sw.Bound[i] = cells[i].bnd.Mean()
		sw.BoundNorm[i] = cells[i].bndN.Mean()
	}
	return sw
}

// ensureBaseline returns the policy list with "none" included.
func ensureBaseline(ps []string) []string {
	for _, p := range ps {
		if p == "none" {
			return ps
		}
	}
	return append([]string{"none"}, ps...)
}

// policyIndex returns the position of name in policies, or -1.
func policyIndex(policies []string, name string) int {
	for i, p := range policies {
		if p == name {
			return i
		}
	}
	return -1
}
