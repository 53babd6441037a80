// Package serve exposes the simulator and the experiment sweeps over a
// small HTTP JSON API with explicit robustness guarantees: strict input
// validation, bounded concurrency with load shedding (429 + Retry-After
// when the worker pool and queue are full), per-request timeouts wired
// into the simulator's cooperative cancellation, panic containment, and
// graceful draining on shutdown.
package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"rtdvs/internal/core"
	"rtdvs/internal/experiment"
	"rtdvs/internal/machine"
	"rtdvs/internal/sched"
	"rtdvs/internal/sim"
	"rtdvs/internal/task"
)

// SimulateRequest is the body of POST /v1/simulate: one simulation run.
type SimulateRequest struct {
	// Tasks is the task set (validated by task.NewSet).
	Tasks []task.Task `json:"tasks"`
	// Machine names a predefined spec ("machine0", ... — see
	// machine.Names); default machine0. Mutually exclusive with
	// MachineSpec.
	Machine string `json:"machine,omitempty"`
	// MachineSpec supplies a custom platform (validated by
	// machine.Spec.Validate).
	MachineSpec *machine.Spec `json:"machineSpec,omitempty"`
	// IdleLevel overrides the spec's idle-level factor when set.
	IdleLevel *float64 `json:"idleLevel,omitempty"`
	// Policy is the scaling policy name (core.ExtendedNames, which
	// includes the adaptive extension family); default laEDF.
	Policy string `json:"policy,omitempty"`
	// Exec is the execution model spec (task.ParseExec): "wcet",
	// "c=<frac>", "uniform", or a distribution spec ("beta=<a>,<b>",
	// "bimodal=<lo>,<hi>,<p>", "hist=<w1>,...") — the latter also feed
	// the distribution-planning policies (stSelect).
	Exec string `json:"exec,omitempty"`
	// Seed feeds the "uniform" execution model and keys the
	// distribution models' per-invocation draws.
	Seed int64 `json:"seed,omitempty"`
	// Horizon is the simulated duration in ms; 0 selects 20× the longest
	// period.
	Horizon float64 `json:"horizon,omitempty"`
	// Overhead models the K6-2+ switch stop intervals.
	Overhead bool `json:"overhead,omitempty"`
	// Cores, when above 1, runs the simulation on a multi-core copy of
	// the platform under the multi-core engine (sim.RunMulti); the
	// response is then a sim.MultiResult. 0 and 1 select the scalar
	// engine.
	Cores int `json:"cores,omitempty"`
	// Placement selects the multi-core placement ("partitioned-ff",
	// "partitioned-wf", "global"); default partitioned-ff. Requires
	// cores > 1.
	Placement string `json:"placement,omitempty"`
}

// checkCores checks the cores/placement pair that simulate and sweep
// requests share.
func checkCores(cores int, placement string) error {
	if cores < 0 || cores > machine.MaxCores {
		return fmt.Errorf("serve: cores must lie in [0, %d], got %d", machine.MaxCores, cores)
	}
	if placement != "" && cores <= 1 {
		return fmt.Errorf("serve: placement requires cores > 1")
	}
	return nil
}

// Multi reports whether the request selects the multi-core engine.
func (r *SimulateRequest) Multi() bool { return r.Cores > 1 }

// simulation is a validated SimulateRequest: cfg for the scalar engine,
// or, when multi is set, mcfg for the multi-core engine.
type simulation struct {
	cfg   sim.Config
	mcfg  sim.MultiConfig
	multi bool
}

// validate checks every field the two engines share — task set,
// machine, policy (default laEDF), exec spec, horizon (0 selects 20×
// the longest period, as rtdvs-sim does), overhead, cores and
// placement — and builds the configuration of the engine cores selects.
// The multi-core engine takes the policy by name (it builds one
// instance per core); global placement additionally requires a gang
// policy, which the engine itself enforces.
func (r *SimulateRequest) validate() (simulation, error) {
	var v simulation
	if err := checkCores(r.Cores, r.Placement); err != nil {
		return v, err
	}
	ts, err := task.NewSet(r.Tasks...)
	if err != nil {
		return v, err
	}
	spec, err := resolveMachine(r.Machine, r.MachineSpec, r.IdleLevel)
	if err != nil {
		return v, err
	}
	pname := r.Policy
	if pname == "" {
		pname = "laEDF"
	}
	p, err := core.ExtendedByName(pname)
	if err != nil {
		return v, err
	}
	plc, err := sched.ParsePlacement(r.Placement)
	if err != nil {
		return v, err
	}
	exec, err := task.ParseExec(r.Exec, r.Seed)
	if err != nil {
		return v, err
	}
	if err := finiteField("horizon", r.Horizon); err != nil {
		return v, err
	}
	if r.Horizon < 0 {
		return v, fmt.Errorf("serve: horizon must be non-negative, got %v", r.Horizon)
	}
	horizon := r.Horizon
	if horizon <= 0 {
		horizon = 20 * ts.MaxPeriod()
	}
	var overhead *machine.SwitchOverhead
	if r.Overhead {
		oh := machine.K62SwitchOverhead
		overhead = &oh
	}
	if !r.Multi() {
		v.cfg = sim.Config{Tasks: ts, Machine: spec, Policy: p, Exec: exec, Horizon: horizon, Overhead: overhead}
		return v, nil
	}
	v.multi = true
	v.mcfg = sim.MultiConfig{
		Tasks:     ts,
		Machine:   spec.WithCores(r.Cores),
		Policy:    pname,
		Placement: plc,
		Exec:      r.Exec,
		Seed:      r.Seed,
		Horizon:   horizon,
		Overhead:  overhead,
	}
	return v, nil
}

// Config builds the validated sim.Config of a cores <= 1 request.
func (r *SimulateRequest) Config() (sim.Config, error) {
	v, err := r.validate()
	if err == nil && v.multi {
		err = fmt.Errorf("serve: cores=%d selects the multi-core engine; use MultiConfig", r.Cores)
	}
	return v.cfg, err
}

// MultiConfig builds the validated sim.MultiConfig of a cores > 1
// request.
func (r *SimulateRequest) MultiConfig() (sim.MultiConfig, error) {
	v, err := r.validate()
	if err == nil && !v.multi {
		err = fmt.Errorf("serve: cores=%d selects the scalar engine; use Config", r.Cores)
	}
	return v.mcfg, err
}

// SweepRequest is the body of POST /v1/sweep: an asynchronous
// utilization sweep over randomly generated task sets (see
// experiment.Config).
type SweepRequest struct {
	// Policies to evaluate; empty means all registered policies.
	Policies []string `json:"policies,omitempty"`
	// NTasks is the number of tasks per generated set (required).
	NTasks int `json:"nTasks"`
	// Machine names a predefined spec; default machine0.
	Machine string `json:"machine,omitempty"`
	// MachineSpec supplies a custom platform.
	MachineSpec *machine.Spec `json:"machineSpec,omitempty"`
	// IdleLevel overrides the spec's idle-level factor when set.
	IdleLevel *float64 `json:"idleLevel,omitempty"`
	// Exec is the execution model spec applied per generated set.
	Exec string `json:"exec,omitempty"`
	// Utilizations overrides the default 0.05..1.00 axis.
	Utilizations []float64 `json:"utilizations,omitempty"`
	// Sets is the number of random task sets per utilization (default 20).
	Sets int `json:"sets,omitempty"`
	// Seed makes the sweep reproducible.
	Seed int64 `json:"seed,omitempty"`
	// Horizon is the simulated duration per run; 0 selects 10× the
	// longest period of each set.
	Horizon float64 `json:"horizon,omitempty"`
	// Cores, when above 1, sweeps a multi-core copy of the platform
	// under partitioned placement; the utilization axis then spans
	// (0, cores]. 0 and 1 keep the paper's uniprocessor sweeps.
	Cores int `json:"cores,omitempty"`
	// Placement selects the partitioned packing for multi-core sweeps
	// ("partitioned-ff" or "partitioned-wf"; global placement has no
	// per-policy baseline and is rejected). Requires cores > 1.
	Placement string `json:"placement,omitempty"`
}

// Config builds the validated experiment.Config.
func (r *SweepRequest) Config() (experiment.Config, error) {
	var zero experiment.Config
	if r.NTasks <= 0 || r.NTasks > maxSweepTasks {
		return zero, fmt.Errorf("serve: nTasks must lie in [1, %d], got %d", maxSweepTasks, r.NTasks)
	}
	// Bounding sets on its own keeps the grid product below from
	// overflowing.
	if r.Sets < 0 || r.Sets > maxSweepJobs {
		return zero, fmt.Errorf("serve: sets must lie in [0, %d], got %d", maxSweepJobs, r.Sets)
	}
	if err := checkCores(r.Cores, r.Placement); err != nil {
		return zero, err
	}
	var placement sched.Placement
	if r.Cores > 1 {
		var err error
		placement, err = sched.ParsePlacement(r.Placement)
		if err != nil {
			return zero, err
		}
		if placement == sched.Global {
			return zero, fmt.Errorf("serve: global placement has no per-policy baseline; sweeps support partitioned placements only")
		}
	}
	spec, err := resolveMachine(r.Machine, r.MachineSpec, r.IdleLevel)
	if err != nil {
		return zero, err
	}
	exec, err := parseExecFactory(r.Exec, r.Cores)
	if err != nil {
		return zero, err
	}
	umax := 1.0
	if r.Cores > 1 {
		umax = float64(r.Cores)
	}
	for i, u := range r.Utilizations {
		if err := finiteField(fmt.Sprintf("utilizations[%d]", i), u); err != nil {
			return zero, err
		}
		if !(u > 0) || u > umax {
			return zero, fmt.Errorf("serve: utilizations[%d] must lie in (0, %g], got %v", i, umax, u)
		}
	}
	if err := finiteField("horizon", r.Horizon); err != nil {
		return zero, err
	}
	if r.Horizon < 0 {
		return zero, fmt.Errorf("serve: horizon must be non-negative, got %v", r.Horizon)
	}
	cfg := experiment.Config{
		Policies:     r.Policies,
		NTasks:       r.NTasks,
		Machine:      spec,
		Exec:         exec,
		Utilizations: r.Utilizations,
		Sets:         r.Sets,
		Seed:         r.Seed,
		Horizon:      r.Horizon,
		Cores:        r.Cores,
		Placement:    placement,
		ExecSpec:     r.Exec,
	}
	// The sweep's own validation resolves the policy names, so a request
	// accepted here names only policies its jobs can run.
	n, err := experiment.NumJobs(cfg)
	if err != nil {
		return zero, err
	}
	if n > maxSweepJobs {
		return zero, fmt.Errorf("serve: sweep has %d jobs (utilizations × sets), limit %d", n, maxSweepJobs)
	}
	return cfg, nil
}

// resolveMachine picks the platform spec for a request: a named
// predefined spec, a custom validated one, or machine 0.
func resolveMachine(name string, custom *machine.Spec, idle *float64) (*machine.Spec, error) {
	if name != "" && custom != nil {
		return nil, fmt.Errorf("serve: machine and machineSpec are mutually exclusive")
	}
	var spec *machine.Spec
	switch {
	case custom != nil:
		spec = custom
	case name != "":
		spec = machine.ByName(name)
		if spec == nil {
			return nil, fmt.Errorf("serve: unknown machine %q (have: %s)",
				name, strings.Join(machine.Names(), ", "))
		}
	default:
		spec = machine.Machine0()
	}
	if idle != nil {
		if err := finiteField("idleLevel", *idle); err != nil {
			return nil, err
		}
		spec = spec.WithIdleLevel(*idle)
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return spec, nil
}

// parseExecFactory validates the textual exec spec and, for a
// uniprocessor sweep, maps it onto the sweep's per-set factory;
// multi-core sweeps take the spec itself (experiment.Config.ExecSpec).
// The distribution specs have no per-set factory.
func parseExecFactory(spec string, cores int) (experiment.ExecFactory, error) {
	// Validate the spec up front so errors surface at submission time,
	// not inside a worker.
	m, err := task.ParseExec(spec, 0)
	if err != nil || cores > 1 {
		return nil, err
	}
	switch m := m.(type) {
	case task.FullWCET:
		return experiment.WCETExec(), nil
	case task.UniformFraction:
		return experiment.UniformExec(), nil
	case task.ConstantFraction:
		return experiment.ConstantExec(m.C), nil
	}
	return nil, fmt.Errorf("serve: exec %q needs cores > 1; uniprocessor sweeps take \"wcet\", \"c=<frac>\" or \"uniform\"", spec)
}

// finiteField rejects NaN and ±Inf, which decode from JSON only via
// unusual encodings but must never reach the simulator.
func finiteField(name string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("serve: %s must be finite, got %v", name, v)
	}
	return nil
}

// decodeStrict unmarshals a request body, rejecting unknown fields and
// trailing garbage.
func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("serve: trailing data after JSON body")
	}
	return nil
}
