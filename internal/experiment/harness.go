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

	"rtdvs/internal/bound"
	"rtdvs/internal/core"
	"rtdvs/internal/machine"
	"rtdvs/internal/sched"
	"rtdvs/internal/sim"
	"rtdvs/internal/stats"
	"rtdvs/internal/task"
)

// ExecFactory builds the actual-computation model for one run on a
// generated task set. seed is the set's dedicated, deterministic seed: a
// model that draws seeds its own source from it, and one that does not
// never pays for a source.
type ExecFactory func(seed int64) task.ExecModel

// WCETExec makes every invocation use its worst case (Figures 9–11).
func WCETExec() ExecFactory {
	return func(int64) task.ExecModel { return task.FullWCET{} }
}

// ConstantExec makes every invocation use fraction c of its worst case
// (Figures 12, 16, 17).
func ConstantExec(c float64) ExecFactory {
	return func(int64) task.ExecModel { return task.ConstantFraction{C: c} }
}

// UniformExec draws each invocation uniformly from (0, WCET] (Figure 13).
func UniformExec() ExecFactory {
	return func(seed int64) task.ExecModel {
		return task.UniformFraction{Lo: 0, Hi: 1, Rand: rand.New(rand.NewSource(seed))}
	}
}

// Config parameterizes a utilization sweep.
type Config struct {
	// Policies to evaluate, by any name core.ExtendedByName resolves;
	// nil means core.Names(). The plain-EDF baseline is always run (it
	// normalizes the results and anchors the lower bound), whether or
	// not it is listed.
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

// harnessOut is one job's scalar outputs: the value of each policy
// (energy, or average power in Figures 16 and 17), indexed like the
// panel's policies, its miss count, and the lower bound.
type harnessOut struct {
	energy []float64
	misses []int
	bnd    float64
}

// newOuts allocates one output slot per job for np policies.
func newOuts(njobs, np int) []harnessOut {
	outs := make([]harnessOut, njobs)
	for i := range outs {
		outs[i] = harnessOut{energy: make([]float64, np), misses: make([]int, np)}
	}
	return outs
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

// normalize applies Config defaults and validates the fields every
// entry point (RunContext, RunJobs, FoldJobs, NumJobs, Header) depends
// on, so the grid geometry and per-job seeding are identical no matter
// which entry point — local pool, checkpoint replay, or remote shard —
// executes a job, and an unknown policy is rejected before any job is
// scheduled.
func normalize(cfg Config) (Config, error) {
	if cfg.Policies == nil {
		cfg.Policies = core.Names()
	}
	if _, err := newPolicies(cfg.Policies); err != nil {
		return cfg, err
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
	return cfg.Exec(1).String()
}

// newSet generates the n-task set of worst-case utilization u that seed
// selects: the draw every panel's job starts from.
func newSet(n int, u float64, seed int64) (*task.Set, error) {
	g := task.Generator{N: n, Utilization: u, Rand: rand.New(rand.NewSource(seed))}
	return g.Generate()
}

// newPolicies returns one fresh instance per name, in order. A worker
// builds its instances once and reuses them across jobs: Attach resets
// an instance's state at the start of every run.
func newPolicies(names []string) ([]core.Policy, error) {
	ps := make([]core.Policy, len(names))
	for i, name := range names {
		p, err := core.ExtendedByName(name)
		if err != nil {
			return nil, err
		}
		ps[i] = p
	}
	return ps, nil
}

// jobSet draws the task set of job j (= ui*Sets+si) of a utilization
// grid and returns it with the job's seed and horizon. The utilization
// sweeps and Figures 16 and 17 share it. cfg must be normalized.
func jobSet(cfg Config, j int) (ts *task.Set, seed int64, horizon float64, err error) {
	ui, si := j/cfg.Sets, j%cfg.Sets
	seed = cfg.Seed + int64(ui)*1_000_003 + int64(si)*7919
	ts, err = newSet(cfg.NTasks, cfg.Utilizations[ui], seed)
	if err != nil {
		return nil, 0, 0, err
	}
	horizon = cfg.Horizon
	if horizon <= 0 {
		horizon = 10 * ts.MaxPeriod()
	}
	return ts, seed, horizon, nil
}

// jobRunner bundles a sweep's normalized config, its baseline-complete
// policy list, and the reusable per-worker simulation state: one scalar
// simulator with one instance of each policy, or, for multi-core
// sweeps, one multi-core runner (which resolves its policies by name,
// one instance per core). Both are reset between runs, so a sweep of
// hundreds of simulations allocates per worker (or per shard), not per
// run.
type jobRunner struct {
	cfg      Config
	policies []string
	baseIdx  int

	runner *sim.Runner
	pols   []core.Policy
	multi  *sim.MultiRunner
}

// newJobRunner builds a worker's state for cfg, which must be
// normalized; policies must include the baseline.
func newJobRunner(cfg Config, policies []string) (*jobRunner, error) {
	jr := &jobRunner{cfg: cfg, policies: policies, baseIdx: policyIndex(policies, "none")}
	if cfg.Machine.NumCores() > 1 {
		jr.multi = sim.NewMultiRunner()
		return jr, nil
	}
	pols, err := newPolicies(policies)
	if err != nil {
		return nil, err
	}
	jr.runner, jr.pols = sim.NewRunner(), pols
	return jr, nil
}

// runOne executes flat job j (= ui*Sets+si) of the grid into out. The
// computation — per-job seeding included — is a pure function of
// (cfg, j), which is what makes local, checkpoint-replayed, and
// remotely-sharded executions of the same job bit-identical.
func (jr *jobRunner) runOne(ctx context.Context, j int, out *harnessOut) error {
	cfg := jr.cfg
	ts, seed, horizon, err := jobSet(cfg, j)
	if err != nil {
		return err
	}
	if jr.multi != nil {
		return jr.runOneMulti(ctx, seed, ts, horizon, out)
	}

	var baseCycles float64
	for pi, p := range jr.pols {
		// Each policy sees the same per-set randomness for its
		// execution-time draws.
		res, err := jr.runner.RunContext(ctx, sim.Config{
			Tasks:   ts,
			Machine: cfg.Machine,
			Policy:  p,
			Exec:    cfg.Exec(seed ^ 0x5DEECE66D),
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
		if pi == jr.baseIdx {
			baseCycles = res.CyclesDone
		}
	}
	out.bnd, err = bound.Energy(cfg.Machine, baseCycles, horizon)
	return err
}

// runOneMulti is runOne's multi-core tail: the same per-job seeding and
// policy order, each policy simulated as a partitioned multi-core run,
// and the lower bound computed per partition (the per-core hull bounds
// sum — a statically partitioned system cannot shift work across
// cores).
func (jr *jobRunner) runOneMulti(ctx context.Context, seed int64, ts *task.Set, horizon float64, out *harnessOut) error {
	cfg := jr.cfg
	var coreCycles []float64
	for pi, pname := range jr.policies {
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
		if pi == jr.baseIdx {
			coreCycles = make([]float64, len(res.PerCore))
			for c := range res.PerCore {
				coreCycles[c] = res.PerCore[c].CyclesDone
			}
		}
	}
	var err error
	out.bnd, err = bound.PartitionedEnergy(cfg.Machine, coreCycles, horizon)
	return err
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
	policies := ensureBaseline(cfg.Policies)
	outs := newOuts(len(cfg.Utilizations)*cfg.Sets, len(policies))
	done := make([]bool, len(outs))
	journal, err := openJournal(cfg, "harness", policies, outs, done)
	if err != nil {
		return nil, err
	}
	defer journal.Close()

	err = runPool(ctx, cfg.Workers, cfg.Metrics, done, func() (func(int) error, error) {
		jr, err := newJobRunner(cfg, policies)
		if err != nil {
			return nil, err
		}
		return func(j int) error {
			if err := jr.runOne(ctx, j, &outs[j]); err != nil {
				return err
			}
			return journal.record(j, &outs[j])
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return fold(cfg, policies, outs), nil
}

// fold adds the completed job slots in (utilization, set, policy)
// order — exactly what one worker draining the job channel produces —
// so the streaming means are bit-identical for any worker count, when
// slots are replayed from a checkpoint journal, and when they were
// computed by remote shard workers (internal/fabric). cfg must be
// normalized.
func fold(cfg Config, policies []string, outs []harnessOut) *Sweep {
	nu, np := len(cfg.Utilizations), len(policies)
	baseIdx := policyIndex(policies, "none")
	col := columns(policies)
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
	energy, norm := make([]stats.Accumulator, np), make([]stats.Accumulator, np)
	for ui := 0; ui < nu; ui++ {
		clear(energy)
		clear(norm)
		var bnd, bndN stats.Accumulator
		for si := 0; si < cfg.Sets; si++ {
			out := &outs[ui*cfg.Sets+si]
			baseE := out.energy[baseIdx]
			for pi, c := range col {
				energy[c].Add(out.energy[pi])
				if baseE > 0 {
					norm[c].Add(out.energy[pi] / baseE)
				}
				sw.Misses[policies[pi]][ui] += out.misses[pi]
			}
			bnd.Add(out.bnd)
			if baseE > 0 {
				bndN.Add(out.bnd / baseE)
			}
		}
		for pi, c := range col {
			sw.Energy[policies[pi]][ui] = energy[c].Mean()
			sw.Normalized[policies[pi]][ui] = norm[c].Mean()
		}
		sw.Bound[ui] = bnd.Mean()
		sw.BoundNorm[ui] = bndN.Mean()
	}
	return sw
}

// columns maps each policy position to the first position of its name,
// so a policy listed twice accumulates into one column: the results are
// keyed by name.
func columns(policies []string) []int {
	col := make([]int, len(policies))
	for pi, p := range policies {
		col[pi] = policyIndex(policies, p)
	}
	return col
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
