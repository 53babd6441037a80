// Package sim is the discrete-event processor/energy simulator the
// evaluation runs on — the Go counterpart of the authors' C++ simulator
// (Section 3.1).
//
// The simulator advances virtual time between scheduling events (task
// releases and completions), executing the scheduler-selected task at the
// operating point dictated by the attached RT-DVS policy. A constant
// quantum of energy is charged per cycle of operation, scaled by the
// square of the operating voltage; halted (idle) cycles are charged the
// machine's idle-level fraction of a normal cycle. Task execution reduces
// to counting cycles, so no instruction traces are needed.
//
// The same loop runs global multicore placement (multi.go): m identical
// cores on one voltage rail are the uniprocessor schedule with m run
// slots, and only the execution segment differs between the two.
//
// The event loop is designed to be allocation-free in steady state, and
// all per-run state is held in reusable buffers. A task's deadline is
// also its next release, so one order of the tasks by (deadline, index)
// is both the release timer and EDF's run queue, and the ready set is a
// bitset in uint64 words over a priority order (queue.go): the deadline
// order under EDF, the static period order under RM. A release moves one
// task back by one insertion; a pick is the lowest set bit. Every set
// size takes this one path. A Runner amortizes every buffer across
// sequential runs — the experiment harness executes hundreds of
// simulations per worker on a single Runner without reallocating.
package sim

import (
	"context"
	"fmt"
	"math"
	"testing"

	"rtdvs/internal/core"
	"rtdvs/internal/fault"
	"rtdvs/internal/fpx"
	"rtdvs/internal/machine"
	"rtdvs/internal/sched"
	"rtdvs/internal/task"
	"rtdvs/internal/trace"
)

// wireDistributions hands the run's execution model to the policy when
// both sides speak distributions: a core.DistributionPlanner policy
// (stSelect, possibly wrapped in containment) plans against exactly the
// task.Distributions model driving the simulation. Policies and models
// outside those interfaces are untouched.
func wireDistributions(p core.Policy, exec task.ExecModel) {
	dp, ok := p.(core.DistributionPlanner)
	if !ok {
		return
	}
	d, _ := exec.(task.Distributions)
	dp.SetDistributions(d) // nil clears a stale model from a prior run
}

// Config describes one simulation run.
type Config struct {
	// Tasks is the periodic task set; each task is first released at its
	// Phase (time zero — the synchronous critical instant — by default).
	Tasks *task.Set
	// Machine is the platform specification.
	Machine *machine.Spec
	// Policy is the RT-DVS policy; the simulator calls Attach itself.
	Policy core.Policy
	// Exec models actual per-invocation computation; nil means FullWCET.
	Exec task.ExecModel
	// Horizon is the simulated duration in milliseconds; 0 (or any
	// non-positive value) selects 20 × the longest period. NaN and ±Inf
	// are refused.
	Horizon float64
	// Overhead optionally models the mandatory stop interval of operating
	// point transitions. Nil means instantaneous switches, the paper's
	// simulator assumption.
	Overhead *machine.SwitchOverhead
	// Recorder optionally captures the execution trace.
	Recorder *trace.Recorder
	// CheckInvariants enables the runtime invariant checker (see
	// invariant.go); a violation makes Run return an error. The checker
	// is always on when running under `go test`, regardless of this flag.
	CheckInvariants bool
	// Faults optionally injects model violations — WCET overruns,
	// overload regimes, operating-point switch failures (see
	// internal/fault). Nil runs the fault-free model, bit-identical to a
	// simulator without the injection hooks. Injectors are stateful:
	// create one per run.
	Faults *fault.Injector
}

// Miss records one deadline miss: invocation inv of task Task was still
// incomplete at its deadline. The overrunning remainder is aborted, so one
// invocation produces at most one miss.
type Miss struct {
	Task     int     `json:"task"`
	Inv      int     `json:"inv"`
	Deadline float64 `json:"deadline"`
	// Remaining is how many cycles were left unexecuted.
	Remaining float64 `json:"remaining"`
}

// TaskStats aggregates per-task outcomes.
type TaskStats struct {
	Releases    int     `json:"releases"`
	Completions int     `json:"completions"`
	Misses      int     `json:"misses"`
	Cycles      float64 `json:"cycles"`
	// MaxResponse is the largest observed response time (completion −
	// release) in milliseconds.
	MaxResponse float64 `json:"maxResponse"`
}

// Result reports the outcome of a run.
type Result struct {
	Policy  string  `json:"policy"`
	Horizon float64 `json:"horizon"`

	// Energy components, in cycle·V² units.
	ExecEnergy  float64 `json:"execEnergy"`
	IdleEnergy  float64 `json:"idleEnergy"`
	TotalEnergy float64 `json:"totalEnergy"`
	CyclesDone  float64 `json:"cyclesDone"`
	BusyTime    float64 `json:"busyTime"`
	IdleTime    float64 `json:"idleTime"`
	HaltTime    float64 `json:"haltTime"` // switch stop intervals
	Switches    int     `json:"switches"`
	Releases    int     `json:"releases"`
	Completions int     `json:"completions"`
	// Events counts event-loop iterations: the work the simulator did to
	// produce this result, independent of wall clock.
	Events int `json:"events"`
	// Preemptions counts scheduling decisions that displaced a
	// still-active invocation in favor of another task.
	Preemptions int    `json:"preemptions"`
	Misses      []Miss `json:"misses,omitempty"`
	Guaranteed  bool   `json:"guaranteed"`
	PerTask     []TaskStats
	// Faults is the injector's fired-fault record; nil when the run was
	// fault-free.
	Faults *fault.Record `json:"faults,omitempty"`
}

// AvgPower returns the average processor power over the run.
func (r *Result) AvgPower() float64 {
	if r.Horizon <= 0 {
		return 0
	}
	return r.TotalEnergy / r.Horizon
}

// MissCount returns the number of deadline misses.
func (r *Result) MissCount() int { return len(r.Misses) }

// Clone returns a deep copy of r that remains valid after the Runner
// that produced r is reused.
func (r *Result) Clone() *Result {
	c := *r
	if r.Misses != nil {
		c.Misses = append([]Miss(nil), r.Misses...)
	}
	if r.PerTask != nil {
		c.PerTask = append([]TaskStats(nil), r.PerTask...)
	}
	if r.Faults != nil {
		f := *r.Faults
		if r.Faults.TaskOverruns != nil {
			f.TaskOverruns = make(map[int]int, len(r.Faults.TaskOverruns))
			for k, v := range r.Faults.TaskOverruns {
				f.TaskOverruns[k] = v
			}
		}
		if r.Faults.Events != nil {
			f.Events = append([]fault.Event(nil), r.Faults.Events...)
		}
		c.Faults = &f
	}
	return &c
}

// cancelCheckInterval is the number of event-loop iterations between
// the loop's periodic checks: the cooperative context poll of RunContext
// and the progress guard. Polling every event would put an interface
// call on the 0-alloc hot path for no benefit — a batch of this size
// costs microseconds of wall time, so a cancelled run still returns
// within its deadline plus one check interval.
const cancelCheckInterval = 64

// stallFactor scales the progress guard's bound: a run fails once
// simulated time has stood still for more than stallFactor·(n + m)
// consecutive events, n tasks on m run slots. At one instant a legal run
// fires its due releases in one event, and each job then takes at most
// two events that do not move time, one that splits it at its budget and
// one that completes it, so it stands still for at most 2n + 1 events.
const stallFactor = 8

// Canceled is the typed partial-result error RunContext returns when the
// context ends before the simulation horizon. It wraps the context's
// error, so errors.Is(err, context.Canceled) and
// errors.Is(err, context.DeadlineExceeded) work as expected.
type Canceled struct {
	// At is the simulated time (ms) the run had reached.
	At float64
	// Partial is the result accumulated up to At. Like a completed
	// result it aliases the Runner's buffers: it is valid until the next
	// Run/RunContext call on the same Runner (use Result.Clone to keep it).
	Partial *Result
	// Cause is the context's error (context.Canceled or
	// context.DeadlineExceeded).
	Cause error
}

// Error implements error.
func (e *Canceled) Error() string {
	return fmt.Sprintf("sim: run cancelled at t=%g of horizon %g: %v",
		e.At, e.Partial.Horizon, e.Cause)
}

// Unwrap returns the context error the cancellation traces to.
func (e *Canceled) Unwrap() error { return e.Cause }

// Stalled is the error a run returns when its simulated time stops
// advancing: an engine fault, such as a due release left unfired, that
// would otherwise spin the event loop forever. The loop checks progress
// every cancelCheckInterval events; stallFactor sets the bound.
type Stalled struct {
	// At is the simulated time (ms) at which the run stood still.
	At float64
	// Events is how many consecutive events, counted in whole check
	// intervals, left simulated time at At.
	Events int
	// Violation is the invariant checker's first violation when it
	// recorded one, usually the fault that stalled the run; nil
	// otherwise.
	Violation error
}

// Error implements error.
func (e *Stalled) Error() string {
	msg := fmt.Sprintf("sim: simulated time stood still at t=%g for %d events", e.At, e.Events)
	if e.Violation != nil {
		msg += ": " + e.Violation.Error()
	}
	return msg
}

// Unwrap returns the invariant violation behind the stall, if any.
func (e *Stalled) Unwrap() error { return e.Violation }

// taskState is per-task runtime state. period and wcet copy the task's
// parameters once per run, so a release or a segment reads no task.Task.
type taskState struct {
	// deadline is the absolute deadline of the current/most recent
	// invocation, which is also when the task's next release fires.
	deadline     float64
	period       float64
	wcet         float64
	remaining    float64 // actual cycles left in the current invocation
	used         float64 // actual cycles consumed so far this invocation
	active       bool
	overNotified bool    // OnOverrun already delivered for this invocation
	inv          int     // invocations released so far
	releasedAt   float64 // release time of current invocation
}

// simulator runs one configuration. It implements core.System. All of
// its state lives in reusable buffers so a Runner or MultiRunner can
// replay configurations without reallocating.
type simulator struct {
	cfg    Config
	ts     *task.Set
	states []taskState
	now    float64
	kind   sched.Kind
	res    Result

	inv      *invariantChecker // nil unless invariant checking is enabled
	invStore invariantChecker  // backing store for inv, reset per run

	hw machine.OperatingPoint // current hardware operating point

	// Every task sits in ord by (deadline, index), with the keys in
	// ordKey and each task's position in ordPos. The ready set is
	// readyBits, one bit per position of the priority order in uint64
	// words: bit k&63 of word k>>6 is set when task prio[k] is active,
	// and rank inverts prio. Under EDF prio and rank alias ord and
	// ordPos, so a reorder carries the ready bits along; under RM they
	// are static, the (period, index) order in static, staticKey and
	// staticPos.
	ord       []int
	ordKey    []float64
	ordPos    []int
	static    []int
	staticKey []float64
	staticPos []int
	prio      []int
	rank      []int
	readyBits []uint64

	due      []int // scratch: tasks due for release this instant
	released []int // scratch: release events pending policy callbacks

	// lastRun is the task index executed by the most recent execution
	// segment (-1 before any, or once that job completed or was
	// aborted), for preemption counting.
	lastRun int

	// Global placement: m run slots on one rail (m is 1 for a scalar
	// run). cores aliases the MultiResult's per-core stats, one per
	// slot; running holds each slot's job (-1 when vacant), vacated when
	// the job completes or is aborted like lastRun; taskCore holds the
	// slot each task last ran on (-1 before any).
	global     bool
	m          int
	cores      []CoreStats
	running    []int
	taskCore   []int
	picks      []int // scratch: this segment's picks, in priority order
	finished   []int // scratch: this segment's completions
	migrations int

	// The loop's periodic checks (poll): tick counts events down to the
	// next one. ctx is nil when the run is not cancellable (plain Run).
	// The progress guard keeps the simulated time of the last check in
	// tickNow and counts the events since time last moved in still, in
	// whole check intervals; past stallLimit the run has stalled.
	tick       int
	ctx        context.Context
	ctxErr     error
	tickNow    float64
	still      int
	stallLimit int
}

// Runner executes simulation runs back to back, reusing all internal
// buffers (task state, release order, ready set, result slices,
// policy-facing scratch), so steady-state runs perform no allocation.
// Not safe for concurrent use.
//
// The *Result returned by Run aliases the Runner's buffers: it is valid
// until the next Run call on the same Runner. Use Result.Clone to retain
// one beyond that.
type Runner struct {
	s simulator
}

// NewRunner returns an empty Runner; buffers grow on first use.
func NewRunner() *Runner { return &Runner{} }

// Run executes the configuration and returns the result. It is a
// convenience wrapper that runs cfg on a fresh Runner, so the returned
// Result does not share buffers with any other run.
func Run(cfg Config) (*Result, error) {
	return NewRunner().Run(cfg)
}

// RunContext executes the configuration on a fresh Runner under ctx (see
// Runner.RunContext).
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	return NewRunner().RunContext(ctx, cfg)
}

// Run executes one configuration, reusing the Runner's buffers. The
// returned Result is valid until the next Run call (see Runner).
func (r *Runner) Run(cfg Config) (*Result, error) {
	return r.run(nil, cfg)
}

// RunContext is Run with cooperative cancellation: the event loop polls
// ctx every cancelCheckInterval events and, when the context ends before
// the horizon, stops promptly and returns a *Canceled error carrying the
// partial result. A nil or background context behaves exactly like Run;
// the hot path stays allocation-free either way.
func (r *Runner) RunContext(ctx context.Context, cfg Config) (*Result, error) {
	if ctx != nil && ctx.Done() == nil {
		// A context that can never be cancelled (context.Background,
		// context.TODO) needs no polling.
		ctx = nil
	}
	return r.run(ctx, cfg)
}

// run validates cfg and executes it.
func (r *Runner) run(ctx context.Context, cfg Config) (*Result, error) {
	if err := validate(&cfg); err != nil {
		return nil, err
	}
	return r.exec(ctx, cfg)
}

// validate checks cfg and applies its defaults in place.
func validate(cfg *Config) error {
	if cfg.Tasks == nil || cfg.Tasks.Len() == 0 {
		return task.ErrEmptySet
	}
	if cfg.Machine == nil {
		return fmt.Errorf("sim: nil machine spec")
	}
	if err := cfg.Machine.Validate(); err != nil {
		return err
	}
	if cfg.Policy == nil {
		return fmt.Errorf("sim: nil policy")
	}
	if cfg.Exec == nil {
		cfg.Exec = task.FullWCET{}
	}
	if math.IsNaN(cfg.Horizon) || math.IsInf(cfg.Horizon, 0) {
		return fmt.Errorf("sim: horizon %g is not finite", cfg.Horizon)
	}
	if cfg.Horizon <= 0 {
		cfg.Horizon = 20 * cfg.Tasks.MaxPeriod()
	}
	return nil
}

// exec runs a validated cfg on the scalar loop and folds the result.
func (r *Runner) exec(ctx context.Context, cfg Config) (*Result, error) {
	s := &r.s
	if err := s.exec(ctx, cfg, nil); err != nil {
		return nil, err
	}
	if cfg.Faults != nil {
		rec := cfg.Faults.Record()
		s.res.Faults = &rec
	}
	if s.ctxErr != nil {
		return nil, &Canceled{At: s.now, Partial: &s.res, Cause: s.ctxErr}
	}
	return &s.res, nil
}

// exec attaches the policy of a validated cfg, resets every piece of
// simulator state — a previous errored or cancelled run must not be able
// to poison this one — and executes the event loop. A nil cores runs
// the scalar loop; a global run passes its per-core stats, one per run
// slot.
func (s *simulator) exec(ctx context.Context, cfg Config, cores []CoreStats) error {
	wireDistributions(cfg.Policy, cfg.Exec)
	if err := cfg.Policy.Attach(cfg.Tasks, cfg.Machine); err != nil {
		return err
	}

	n := cfg.Tasks.Len()
	s.cfg = cfg
	s.ts = cfg.Tasks
	s.now = 0
	s.kind = cfg.Policy.Scheduler()
	s.states = growZeroed(s.states, n)
	s.due = s.due[:0]
	s.released = s.released[:0]
	s.lastRun = -1
	s.global = cores != nil
	s.m = max(len(cores), 1)
	s.cores = cores
	if s.global {
		s.running = fillInts(s.running, s.m, -1)
		s.taskCore = fillInts(s.taskCore, n, -1)
		s.migrations = 0
	}
	s.ctx = ctx
	s.tick = 0 // poll before the first event: an expired ctx does no work
	s.ctxErr = nil
	s.tickNow = math.Inf(-1)
	s.still = 0
	s.stallLimit = stallFactor * (n + s.m)

	s.res = Result{
		Policy:     cfg.Policy.Name(),
		Horizon:    cfg.Horizon,
		Guaranteed: cfg.Policy.Guaranteed(),
		Misses:     s.res.Misses[:0],
		PerTask:    growZeroed(s.res.PerTask, n),
	}
	for i := range s.states {
		// Deadline of the "previous" (nonexistent) invocation is the
		// first release: deadline == next release holds from the start.
		// A non-zero phase simply delays the first release.
		t := cfg.Tasks.Task(i)
		s.states[i] = taskState{deadline: t.Phase, period: t.Period, wcet: t.WCET}
	}
	s.resetQueues()
	if cfg.CheckInvariants || testing.Testing() {
		s.invStore = newInvariantChecker(s)
		s.inv = &s.invStore
	} else {
		s.inv = nil
	}
	s.hw = cfg.Policy.Point()
	s.inv.checkPoint(s.hw)
	s.inv.checkUtilization()
	s.run()
	if s.still > s.stallLimit {
		return &Stalled{At: s.now, Events: s.still, Violation: s.inv.Err()}
	}
	return s.inv.Err()
}

// growZeroed returns a zeroed slice of length n, reusing s's backing
// array when its capacity suffices.
func growZeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// fillInts returns a slice of length n with every element v, reusing
// s's backing array when its capacity suffices.
func fillInts(s []int, n, v int) []int {
	s = growZeroed(s, n)
	for i := range s {
		s[i] = v
	}
	return s
}

// --- core.System ---

func (s *simulator) Now() float64 { return s.now }

func (s *simulator) Deadline(i int) float64 { return s.states[i].deadline }

// DeadlineOrder implements core.OrderedSystem: the release order's tasks
// and keys are the (deadline, index) order. Releases reorder before any
// policy callback, so the order is current at every hook of every run.
//
//rtdvs:hotpath
func (s *simulator) DeadlineOrder() ([]int, []float64) {
	return s.ord, s.ordKey
}

// --- engine ---

// processReleases fires every release scheduled at or before now and
// then notifies the policy once per released task. Due tasks are the
// prefix of the release order whose keys pass fpx.Le (the comparison is
// monotone in the key, so the prefix holds every due task), replayed in
// ascending task-index order — the event order of the original
// full-scan implementation — so miss records, release counters, and
// policy callbacks are bit-identical to it. Tasks due at one instant
// usually share a key, so the prefix is already in index order and
// fires in place; otherwise a sorted copy fires.
//
// The fired tasks move back in the release order only once all have
// fired, last position first, so each passes only tasks already in
// place: a single frame, whose n tasks all fire at once, costs n steps
// where reordering each task as it fires would cost n². A task whose
// new key still comes before its successor's keeps its place and takes
// only the new key.
//
//rtdvs:hotpath
func (s *simulator) processReleases() {
	if !fpx.Le(s.nextReleaseTime(), s.now) {
		return
	}
	s.released = s.released[:0]
	k, ascending := 0, true
	for k < len(s.ord) && fpx.Le(s.ordKey[k], s.now) {
		if k > 0 && s.ord[k] < s.ord[k-1] {
			ascending = false
		}
		k++
	}
	due := s.ord[:k]
	if !ascending {
		s.due = s.due[:0]
		s.due = append(s.due, due...)
		sortIndexes(s.due)
		due = s.due
	}
	for _, i := range due {
		s.fireReleases(i)
	}
	for k--; k >= 0; k-- {
		i := s.ord[k]
		key := s.states[i].deadline
		if k+1 < len(s.ord) && core.OrderBefore(s.ordKey[k+1], s.ord[k+1], key, i) {
			s.reorder(i)
		} else {
			s.ordKey[k] = key
		}
	}
	for _, i := range s.released {
		s.cfg.Policy.OnRelease(s, i)
	}
	if len(s.released) > 0 {
		s.inv.checkUtilization()
	}
}

// fireReleases fires every due release of task i: aborts a previous
// invocation still running at its deadline (== this release), draws the
// new invocation's actual demand, sets its deadline — which is also the
// task's next release — and queues the task for its OnRelease callback.
//
//rtdvs:hotpath
func (s *simulator) fireReleases(i int) {
	st := &s.states[i]
	for fpx.Le(st.deadline, s.now) {
		if st.active {
			s.abort(i)
		}
		rel := st.deadline
		wcet := st.wcet
		c := s.cfg.Exec.Cycles(i, st.inv, wcet)
		if c > wcet {
			c = wcet
		}
		if !(c > 0) {
			// Non-positive and NaN demand alike run a sliver.
			c = math.SmallestNonzeroFloat64
		}
		if s.cfg.Faults != nil {
			// An injected overrun inflates the demand strictly past
			// the declared worst case the admission test assumed.
			c = s.cfg.Faults.Demand(rel, i, st.inv, wcet, c)
		}
		st.remaining = c
		st.used = 0
		st.overNotified = false
		st.releasedAt = rel
		st.deadline = rel + st.period
		st.active = true
		st.inv++
		s.res.Releases++
		s.res.PerTask[i].Releases++
		s.readyAdd(i)
		s.released = append(s.released, i)
	}
}

// abort records task i's active invocation as a deadline miss and drops
// it, vacating its run slot: an aborted job is not a preemption victim.
// The policy gets no callback for an aborted job, so its bookkeeping
// resets at the task's next OnRelease.
//
//rtdvs:hotpath
func (s *simulator) abort(i int) {
	st := &s.states[i]
	s.res.Misses = append(s.res.Misses, Miss{
		Task: i, Inv: st.inv - 1, Deadline: st.deadline, Remaining: st.remaining,
	})
	s.res.PerTask[i].Misses++
	if s.global {
		if c := s.taskCore[i]; c >= 0 {
			s.cores[c].Misses++
			if s.running[c] == i {
				s.running[c] = -1
			}
		}
	}
	s.inv.checkMiss(i, st.inv-1, st.deadline)
	st.active = false
	s.readyRemove(i)
	if s.lastRun == i {
		s.lastRun = -1
	}
}

// sortIndexes insertion-sorts a (short) batch of due task indexes into
// ascending order.
//
//rtdvs:hotpath
func sortIndexes(xs []int) {
	for i := 1; i < len(xs); i++ {
		v := xs[i]
		j := i
		for j > 0 && xs[j-1] > v {
			xs[j] = xs[j-1]
			j--
		}
		xs[j] = v
	}
}

// switchTo moves the hardware to the requested operating point, charging
// the mandatory stop interval if an overhead model is configured. Time
// spent halted produces no energy (the processor does not operate during
// the switching interval) but does elapse. The m slots of a global run
// share the rail, so they halt together: one switch, m core-intervals
// of HaltTime. With fault injection active
// the transition may be denied or stuck — the hardware then silently
// stays put and the main loop retries at the next scheduling event — or
// its stop interval inflated.
//
//rtdvs:hotpath
func (s *simulator) switchTo(op machine.OperatingPoint) {
	if op == s.hw {
		return
	}
	var halt float64
	if s.cfg.Overhead != nil {
		halt = s.cfg.Overhead.Halt(s.hw, op)
	}
	if s.cfg.Faults != nil {
		ok, adj := s.cfg.Faults.Switch(s.now, s.hw, op, halt)
		if !ok {
			return
		}
		halt = adj
	}
	s.res.Switches++
	if halt > 0 {
		end := s.now + halt
		if s.cfg.Horizon < end {
			end = s.cfg.Horizon
		}
		s.record(trace.SwitchHalt, s.now, end, op)
		dur := end - s.now
		for range s.m {
			s.res.HaltTime += dur
		}
		for c := range s.cores {
			s.cores[c].HaltTime += dur
		}
		s.now = end
	}
	s.hw = op
	s.inv.checkPoint(op)
}

// record appends a segment to the trace, when one is being recorded.
//
//rtdvs:hotpath
func (s *simulator) record(taskIdx int, start, end float64, op machine.OperatingPoint) {
	if s.cfg.Recorder != nil {
		s.cfg.Recorder.Add(trace.Segment{Task: taskIdx, Start: start, End: end, Point: op})
	}
}

// poll runs the loop's periodic checks, once every cancelCheckInterval
// events, and reports whether the run must stop: because its context
// has ended, or because simulated time has not moved for more than
// stallLimit consecutive events. Time never moves backwards, so time
// that stands still from one check to the next stood still at every
// event in between.
//
//rtdvs:hotpath
func (s *simulator) poll() bool {
	s.tick = cancelCheckInterval
	if s.ctx != nil {
		if err := s.ctx.Err(); err != nil {
			s.ctxErr = err
			return true
		}
	}
	if s.now > s.tickNow {
		s.tickNow, s.still = s.now, 0
		return false
	}
	s.still += cancelCheckInterval
	return s.still > s.stallLimit
}

// run is the main loop: process releases due now, pick a task, execute it
// until completion or the next release, and account energy along the way.
// A global run executes its segment on m slots instead (execSlots).
// Minima and maxima are branches rather than math.Min/Max calls: every
// operand is a non-negative time (or +Inf), where the two agree exactly.
//
//rtdvs:hotpath
func (s *simulator) run() {
	for fpx.Lt(s.now, s.cfg.Horizon) {
		if s.tick--; s.tick <= 0 && s.poll() {
			break
		}
		s.res.Events++
		s.processReleases()

		nextRel := s.nextReleaseTime()
		if s.cfg.Horizon < nextRel {
			nextRel = s.cfg.Horizon
		}
		pick := s.readyPeek()
		s.inv.checkPick(pick)

		if pick < 0 {
			// Idle until the next release at the policy's idle point. A
			// stop interval that ends past that release leaves nothing to
			// idle: the release is processed when the halt ends.
			op := s.cfg.Policy.IdlePoint()
			s.switchTo(op)
			if nextRel > s.now {
				dur := nextRel - s.now
				e := s.cfg.Machine.IdlePower(op) * dur
				for range s.m {
					s.res.IdleEnergy += e
					s.res.IdleTime += dur
				}
				for c := range s.cores {
					s.cores[c].IdleEnergy += e
					s.cores[c].IdleTime += dur
				}
				s.record(trace.Idle, s.now, nextRel, op)
				s.now = nextRel
				s.inv.checkEnergy()
			}
			continue
		}

		op := s.cfg.Policy.Point()
		s.switchTo(op)
		if fpx.Ge(s.now, s.cfg.Horizon) {
			break
		}
		if fpx.Le(s.nextReleaseTime(), s.now) {
			// A release became due during the stop interval; process it
			// (and let the policy react) before execution resumes.
			continue
		}
		nextRel = s.nextReleaseTime()
		if s.cfg.Horizon < nextRel {
			nextRel = s.cfg.Horizon
		}
		if s.global {
			s.execSlots(nextRel)
			continue
		}

		// A different task taking the processor while the previous one is
		// still mid-invocation is a preemption (under EDF/RM the displaced
		// task cannot have idled in between: idle implies no active tasks).
		if s.lastRun >= 0 && s.lastRun != pick && s.states[s.lastRun].active {
			s.res.Preemptions++
		}
		s.lastRun = pick

		st := &s.states[pick]
		wcet := st.wcet
		finish := s.now + st.remaining/s.hw.Freq
		end := finish
		if nextRel < end {
			end = nextRel
		}
		budgetEnd := math.Inf(1)
		if s.cfg.Faults != nil {
			// Split the segment the moment an overrunning job exhausts its
			// declared budget — the earliest point the overrun is
			// observable.
			if left := wcet - st.used; left > 0 && fpx.Lt(left, st.remaining) {
				budgetEnd = s.now + left/s.hw.Freq
				if budgetEnd < end {
					end = budgetEnd
				}
			}
		}
		dur := end - s.now
		cycles := dur * s.hw.Freq
		if cycles > st.remaining || fpx.Le(finish, end) {
			cycles = st.remaining
		} else if fpx.Le(budgetEnd, end) {
			cycles = wcet - st.used
		}
		st.remaining -= cycles
		st.used += cycles
		s.res.CyclesDone += cycles
		s.res.PerTask[pick].Cycles += cycles
		s.res.ExecEnergy += cycles * s.hw.EnergyPerCycle()
		s.res.BusyTime += dur
		s.record(pick, s.now, end, s.hw)
		s.now = end
		s.inv.checkEnergy()
		s.cfg.Policy.OnExecute(pick, cycles)

		if fpx.Le(st.remaining, 0) {
			st.remaining = 0
			st.active = false
			s.readyRemove(pick)
			s.res.Completions++
			s.res.PerTask[pick].Completions++
			if resp := s.now - st.releasedAt; resp > s.res.PerTask[pick].MaxResponse {
				s.res.PerTask[pick].MaxResponse = resp
			}
			// The invocation is gone; a later activation of the same task
			// index must not read as a preemption victim.
			s.lastRun = -1
			s.cfg.Policy.OnCompletion(s, pick, st.used)
			s.inv.checkUtilization()
		} else if s.cfg.Faults != nil && !st.overNotified && fpx.Ge(st.used, wcet) {
			// Budget exhausted with work remaining: a WCET overrun in
			// progress. Tell an overrun-aware policy (core.Contained) so
			// containment engages before the next segment.
			st.overNotified = true
			if oa, ok := s.cfg.Policy.(core.OverrunAware); ok {
				oa.OnOverrun(s, pick)
			}
		}
	}
	s.res.TotalEnergy = s.res.ExecEnergy + s.res.IdleEnergy
	s.inv.checkEnergy()
}
