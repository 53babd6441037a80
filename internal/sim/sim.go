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
// The event loop is designed to be allocation-free in steady state:
// pending releases live in an index-heap timer queue and ready tasks in
// an index-heap run queue (both from internal/sched), so each event costs
// O(log n) instead of a full task scan, and all per-run state is held in
// reusable buffers. Two task-set properties specialize those queues
// (release.go): a set on an exact integer grid replaces the timer heap
// with a precomputed per-hyperperiod release table, and a single-frame
// set replaces the run queue with a bitmask. A Runner amortizes every
// buffer across sequential runs — the experiment harness executes
// hundreds of simulations per worker on a single Runner without
// reallocating.
package sim

import (
	"context"
	"fmt"
	"math"
	"math/bits"
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
	// Horizon is the simulated duration in milliseconds; 0 selects
	// 20 × the longest period.
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
	// Faults optionally injects model violations — WCET overruns, release
	// jitter and timer drift, operating-point switch failures (see
	// internal/fault). Nil runs the fault-free model, bit-identical to a
	// simulator without the injection hooks. Injectors are stateful:
	// create one per run.
	Faults *fault.Injector
	// Metrics optionally accumulates run observables (see NewMetrics)
	// into an obs registry. Observation happens once per successful run,
	// off the event loop, so the hot path stays allocation-free and run
	// results are bit-identical with or without it.
	Metrics *Metrics
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
	Preemptions  int    `json:"preemptions"`
	Misses       []Miss `json:"misses,omitempty"`
	Guaranteed   bool   `json:"guaranteed"`
	PerTask      []TaskStats
	PointResTime map[machine.OperatingPoint]float64 `json:"-"`
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
	if r.PointResTime != nil {
		c.PointResTime = make(map[machine.OperatingPoint]float64, len(r.PointResTime))
		for k, v := range r.PointResTime {
			c.PointResTime[k] = v
		}
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
// cooperative context polls in RunContext. Polling every event would put
// an interface call on the 0-alloc hot path for no benefit — a batch of
// this size costs microseconds of wall time, so a cancelled run still
// returns within its deadline plus one check interval.
const cancelCheckInterval = 64

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

// taskState is per-task runtime state.
type taskState struct {
	nextRelease  float64 // actual time the next release fires (nominal + injected delay)
	nominalRel   float64 // nominal (fault-free) time of the next release; the deadline grid
	deadline     float64 // absolute deadline of the current/most recent invocation
	remaining    float64 // actual cycles left in the current invocation
	used         float64 // actual cycles consumed so far this invocation
	active       bool
	overNotified bool    // OnOverrun already delivered for this invocation
	inv          int     // invocations released so far
	releasedAt   float64 // release time of current invocation
}

// simulator runs one configuration. It implements core.System and
// sched.TaskView. All of its state lives in reusable buffers so a Runner
// can replay configurations without reallocating.
type simulator struct {
	cfg    Config
	ts     *task.Set
	states []taskState
	now    float64
	kind   sched.Kind
	res    Result

	inv      *invariantChecker // nil unless invariant checking is enabled
	invStore invariantChecker  // backing store for inv, reset per run

	hw    machine.OperatingPoint // current hardware operating point
	hwIdx int                    // machine table index of hw, -1 if foreign
	sel   machine.PointSelector

	// memoOp/memoIdx memoize the last PointSelector.Index lookup — a pure
	// function, so the memo is exact. The idle path would otherwise pay a
	// linear table scan per idle event.
	memoOp    machine.OperatingPoint
	memoIdx   int
	memoValid bool

	// timers holds every task keyed by its next release time; ready holds
	// the active tasks keyed by the scheduling discipline (absolute
	// deadline under EDF, period under RM — identical pick order to the
	// sched package's linear scan, ties by task index).
	timers sched.ReadyQueue
	ready  sched.ReadyQueue

	// With table set, releases come from tab and the timer heap stays
	// empty; with frame set (which implies table), the ready set is the
	// readyBits bitmask instead of the run queue. Both need a fault-free
	// run: injected release delays leave the integer grid.
	table     bool
	tab       releaseTable
	frame     bool
	readyBits uint64

	due      []int     // scratch: tasks drained from timers this instant
	released []int     // scratch: release events pending policy callbacks
	resTime  []float64 // per machine-table point index: residency time

	// lastRun is the task index executed by the most recent execution
	// segment (-1 before any), for preemption counting.
	lastRun int

	// Cooperative cancellation: ctx is nil when the run is not
	// cancellable (plain Run), so the hot path pays one nil check per
	// event. ctxTick counts events down to the next poll.
	ctx     context.Context
	ctxTick int
	ctxErr  error
}

// Runner executes simulation runs back to back, reusing all internal
// buffers (task state, heaps, result slices, policy-facing scratch), so
// steady-state runs perform no allocation. Not safe for concurrent use.
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
	if cfg.Horizon <= 0 {
		cfg.Horizon = 20 * cfg.Tasks.MaxPeriod()
	}
	return nil
}

// exec attaches the policy of a validated cfg, resets every piece of
// runner state — a previous errored or cancelled run must not be able
// to poison this one — and executes the event loop.
func (r *Runner) exec(ctx context.Context, cfg Config) (*Result, error) {
	wireDistributions(cfg.Policy, cfg.Exec)
	if err := cfg.Policy.Attach(cfg.Tasks, cfg.Machine); err != nil {
		return nil, err
	}

	s := &r.s
	n := cfg.Tasks.Len()
	s.cfg = cfg
	s.ts = cfg.Tasks
	s.now = 0
	s.kind = cfg.Policy.Scheduler()
	s.sel = cfg.Machine.Selector()
	s.memoValid = false
	s.states = growZeroed(s.states, n)
	s.resTime = growZeroed(s.resTime, s.sel.Len())
	s.due = s.due[:0]
	s.released = s.released[:0]
	s.timers.Reset(n)
	s.ready.Reset(n)
	s.lastRun = -1
	s.ctx = ctx
	s.ctxTick = 0 // poll before the first event: an expired ctx does no work
	s.ctxErr = nil

	prt := s.res.PointResTime
	if prt == nil {
		prt = make(map[machine.OperatingPoint]float64, s.sel.Len())
	} else {
		clear(prt)
	}
	s.res = Result{
		Policy:       cfg.Policy.Name(),
		Horizon:      cfg.Horizon,
		Guaranteed:   cfg.Policy.Guaranteed(),
		Misses:       s.res.Misses[:0],
		PerTask:      growZeroed(s.res.PerTask, n),
		PointResTime: prt,
	}
	s.table = cfg.Faults == nil && s.tab.build(cfg.Tasks, cfg.Horizon)
	s.frame = s.table && frameSet(cfg.Tasks)
	s.readyBits = 0
	for i := range s.states {
		// Deadline of the "previous" (nonexistent) invocation is the
		// first release: deadline == next release holds from the start.
		// A non-zero phase simply delays the first release. An injected
		// release delay shifts only the actual fire time; the nominal
		// grid (and with it every deadline) stays put.
		phase := cfg.Tasks.Task(i).Phase
		st := taskState{nextRelease: phase, nominalRel: phase, deadline: phase}
		if cfg.Faults != nil {
			st.nextRelease += cfg.Faults.ReleaseDelay(phase, i, 0)
		}
		s.states[i] = st
		if !s.table {
			s.timerAdd(i, st.nextRelease)
		}
	}
	if cfg.CheckInvariants || testing.Testing() {
		s.invStore = newInvariantChecker(s)
		s.inv = &s.invStore
	} else {
		s.inv = nil
	}
	s.hw = cfg.Policy.Point()
	s.hwIdx = s.selIndex(s.hw)
	s.inv.checkPoint(s.hw)
	s.inv.checkUtilization()
	s.run()
	if err := s.inv.Err(); err != nil {
		return nil, err
	}
	for i, d := range s.resTime {
		if d > 0 {
			s.res.PointResTime[cfg.Machine.Points[i]] += d
		}
	}
	if cfg.Faults != nil {
		rec := cfg.Faults.Record()
		s.res.Faults = &rec
	}
	if s.ctxErr != nil {
		return nil, &Canceled{At: s.now, Partial: &s.res, Cause: s.ctxErr}
	}
	if cfg.Metrics != nil {
		cfg.Metrics.observe(&s.res, s.resTime, cfg.Machine)
	}
	return &s.res, nil
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

// --- core.System ---

func (s *simulator) Now() float64 { return s.now }

func (s *simulator) Deadline(i int) float64 {
	st := &s.states[i]
	if st.active {
		return st.deadline
	}
	// The nominal next release: a completed invocation's deadline sits on
	// the deadline grid, which injected release delays never move (the
	// policy plans against the timers it believes in). Fault-free, this
	// equals nextRelease.
	return st.nominalRel
}

// --- sched.TaskView ---

func (s *simulator) NumTasks() int        { return s.ts.Len() }
func (s *simulator) Task(i int) task.Task { return s.ts.Task(i) }
func (s *simulator) Ready(i int) bool     { return s.states[i].active }

// --- engine ---

// timerAdd enqueues task i's next release. The timer heap holds every
// task exactly once outside processReleases, so a failed push is an
// engine bug, not a recoverable condition.
//
//rtdvs:hotpath
func (s *simulator) timerAdd(i int, at float64) {
	if err := s.timers.Push(i, at); err != nil {
		panic(err)
	}
}

// readyKey returns task i's run-queue priority under the attached
// scheduling discipline: absolute deadline for EDF, period for RM —
// exactly the orderings of sched.New(kind).Pick.
//
//rtdvs:hotpath
func (s *simulator) readyKey(i int) float64 {
	if s.kind == sched.RM {
		return s.ts.Task(i).Period
	}
	return s.states[i].deadline
}

// readyAdd enqueues a newly activated task: a bit set for a single-frame
// set, a run-queue push otherwise. Activation is always paired with
// deactivation (completion, miss, abort), so a duplicate is an engine
// bug.
//
//rtdvs:hotpath
func (s *simulator) readyAdd(i int) {
	if s.frame {
		s.readyBits |= 1 << uint(i)
		return
	}
	if err := s.ready.Push(i, s.readyKey(i)); err != nil {
		panic(err)
	}
}

// readyPeek returns the highest-priority active task, or -1 when idle.
// For a single-frame set the lowest set bit IS the run queue's answer:
// all active keys are equal, and the queue breaks ties by task index.
//
//rtdvs:hotpath
func (s *simulator) readyPeek() int {
	if s.frame {
		if s.readyBits == 0 {
			return -1
		}
		return bits.TrailingZeros64(s.readyBits)
	}
	return s.ready.Peek()
}

// readyRemove drops a completed or aborted task from the ready set.
//
//rtdvs:hotpath
func (s *simulator) readyRemove(i int) {
	if s.frame {
		s.readyBits &^= 1 << uint(i)
		return
	}
	s.ready.Remove(i)
}

// nextReleaseTime returns the earliest pending release: the release
// table's cursor, or the timer heap's minimum.
//
//rtdvs:hotpath
func (s *simulator) nextReleaseTime() float64 {
	if s.table {
		return s.tab.next
	}
	return s.timers.PeekKey()
}

// selIndex returns op's machine-table index through the one-entry memo.
//
//rtdvs:hotpath
func (s *simulator) selIndex(op machine.OperatingPoint) int {
	if s.memoValid && op == s.memoOp {
		return s.memoIdx
	}
	s.memoOp, s.memoIdx, s.memoValid = op, s.sel.Index(op), true
	return s.memoIdx
}

// processReleases fires every release scheduled at or before now and
// then notifies the policy once per released task. Due tasks come from
// the release table's bitmask or are drained from the timer heap, and
// either way replay in ascending task-index order — the event order of
// the original full-scan implementation — so miss records, release
// counters, and policy callbacks are bit-identical to it.
//
//rtdvs:hotpath
func (s *simulator) processReleases() {
	if !fpx.Le(s.nextReleaseTime(), s.now) {
		return
	}
	s.released = s.released[:0]
	if s.table {
		for due := s.tab.drain(s.now); due != 0; due &= due - 1 {
			s.fireReleases(bits.TrailingZeros64(due))
		}
	} else {
		s.due = s.due[:0]
		for fpx.Le(s.timers.PeekKey(), s.now) {
			s.due = append(s.due, s.timers.Pop())
		}
		sortIndexes(s.due)
		for _, i := range s.due {
			s.fireReleases(i)
			s.timerAdd(i, s.states[i].nextRelease)
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
// new invocation's actual demand, advances the deadline grid, and queues
// the task for its OnRelease callback.
//
//rtdvs:hotpath
func (s *simulator) fireReleases(i int) {
	st := &s.states[i]
	for fpx.Le(st.nextRelease, s.now) {
		if st.active {
			s.abort(i)
		}
		actual := st.nextRelease // possibly delayed fire time
		rel := st.nominalRel     // nominal tick: the deadline grid
		p := s.ts.Task(i)
		wcet := p.WCET
		c := s.cfg.Exec.Cycles(i, st.inv, wcet)
		if c > wcet {
			c = wcet
		}
		if c <= 0 {
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
		st.releasedAt = actual
		st.deadline = rel + p.Period
		st.nominalRel = rel + p.Period
		st.nextRelease = st.nominalRel
		if s.cfg.Faults != nil {
			st.nextRelease += s.cfg.Faults.ReleaseDelay(st.nominalRel, i, st.inv+1)
		}
		st.active = true
		st.inv++
		s.res.Releases++
		s.res.PerTask[i].Releases++
		s.readyAdd(i)
		s.released = append(s.released, i)
	}
}

// abort records task i's active invocation as a deadline miss and drops
// it. The policy gets no callback for an aborted job, so its bookkeeping
// resets at the task's next OnRelease.
//
//rtdvs:hotpath
func (s *simulator) abort(i int) {
	st := &s.states[i]
	s.res.Misses = append(s.res.Misses, Miss{
		Task: i, Inv: st.inv - 1, Deadline: st.deadline, Remaining: st.remaining,
	})
	s.res.PerTask[i].Misses++
	s.inv.checkMiss(i, st.inv-1, st.deadline)
	st.active = false
	s.readyRemove(i)
	if s.lastRun == i {
		s.lastRun = -1 // aborted, not preempted
	}
}

// sortIndexes insertion-sorts a (short) batch of task indexes drained
// from the timer heap into ascending order.
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

// nextAbortTime returns the earliest pending deadline abort: the
// earliest deadline of an active invocation that precedes its task's
// next (delayed) release. Only injected release delays open such a gap —
// fault-free, deadline == next release and the miss is handled by
// processReleases — so this is called only when faults are enabled.
//
//rtdvs:hotpath
func (s *simulator) nextAbortTime() float64 {
	t := math.Inf(1)
	for i := range s.states {
		st := &s.states[i]
		if st.active && fpx.Lt(st.deadline, st.nextRelease) && st.deadline < t {
			t = st.deadline
		}
	}
	return t
}

// processAborts kills every active invocation whose deadline has passed,
// recording the miss. With injected release delays a deadline can
// precede the (late) next release, and the job must stop at the
// deadline rather than run zombie cycles until the release fires. Like
// nextAbortTime it is called only when faults are enabled.
//
//rtdvs:hotpath
func (s *simulator) processAborts() {
	for i := range s.states {
		st := &s.states[i]
		if st.active && fpx.Le(st.deadline, s.now) {
			s.abort(i)
		}
	}
}

// switchTo moves the hardware to the requested operating point, charging
// the mandatory stop interval if an overhead model is configured. Time
// spent halted produces no energy (the processor does not operate during
// the switching interval) but does elapse. With fault injection active
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
	idx := s.selIndex(op)
	s.res.Switches++
	if halt > 0 {
		end := s.now + halt
		if s.cfg.Horizon < end {
			end = s.cfg.Horizon
		}
		s.record(trace.SwitchHalt, s.now, end, op, idx)
		s.res.HaltTime += end - s.now
		s.now = end
	}
	s.hw, s.hwIdx = op, idx
	s.inv.checkPoint(op)
}

// record accounts a trace segment and the operating point's residency.
// opIdx is op's machine-table index; residency accumulates in a dense
// array on that index, falling back to the result map for a foreign
// point (only reachable when a buggy policy fabricates one — the
// invariant checker flags it, but accounting must not crash first).
//
//rtdvs:hotpath
func (s *simulator) record(taskIdx int, start, end float64, op machine.OperatingPoint, opIdx int) {
	if s.cfg.Recorder != nil {
		s.cfg.Recorder.Add(trace.Segment{Task: taskIdx, Start: start, End: end, Point: op})
	}
	if opIdx >= 0 {
		s.resTime[opIdx] += end - start
	} else {
		s.res.PointResTime[op] += end - start
	}
}

// pollCtx reports whether the run's context has ended, checking it only
// every cancelCheckInterval calls so the interface call stays off the
// per-event fast path. Must only be called with a non-nil s.ctx.
//
//rtdvs:hotpath
func (s *simulator) pollCtx() bool {
	if s.ctxTick--; s.ctxTick > 0 {
		return false
	}
	s.ctxTick = cancelCheckInterval
	if err := s.ctx.Err(); err != nil {
		s.ctxErr = err
		return true
	}
	return false
}

// run is the main loop: process releases due now, pick a task, execute it
// until completion or the next release, and account energy along the way.
// Minima and maxima are branches rather than math.Min/Max calls: every
// operand is a non-negative time (or +Inf), where the two agree exactly.
//
//rtdvs:hotpath
func (s *simulator) run() {
	for fpx.Lt(s.now, s.cfg.Horizon) {
		if s.ctx != nil && s.pollCtx() {
			break
		}
		s.res.Events++
		if s.cfg.Faults != nil {
			s.processAborts()
		}
		s.processReleases()

		nextRel := s.nextReleaseTime()
		if s.cfg.Horizon < nextRel {
			nextRel = s.cfg.Horizon
		}
		pick := s.readyPeek()

		if pick < 0 {
			// Idle until the next release at the policy's idle point.
			op := s.cfg.Policy.IdlePoint()
			s.switchTo(op)
			start := s.now
			end := nextRel
			if start > end {
				end = start
			}
			if end > start {
				dur := end - start
				e := s.cfg.Machine.IdlePower(op) * dur
				s.res.IdleEnergy += e
				s.res.IdleTime += dur
				s.record(trace.Idle, start, end, op, s.selIndex(op))
				s.now = end
				s.inv.checkEnergy()
			} else {
				s.now = nextRel
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
		if s.cfg.Faults != nil && fpx.Le(s.nextAbortTime(), s.now) {
			// A deadline passed during the stop interval; abort the dead
			// job before executing further.
			continue
		}
		nextRel = s.nextReleaseTime()
		if s.cfg.Horizon < nextRel {
			nextRel = s.cfg.Horizon
		}

		// A different task taking the processor while the previous one is
		// still mid-invocation is a preemption (under EDF/RM the displaced
		// task cannot have idled in between: idle implies no active tasks).
		if s.lastRun >= 0 && s.lastRun != pick && s.states[s.lastRun].active {
			s.res.Preemptions++
		}
		s.lastRun = pick

		st := &s.states[pick]
		wcet := s.ts.Task(pick).WCET
		finish := s.now + st.remaining/s.hw.Freq
		end := finish
		if nextRel < end {
			end = nextRel
		}
		budgetEnd := math.Inf(1)
		if s.cfg.Faults != nil {
			// Stop at pending deadline aborts, and split the segment the
			// moment an overrunning job exhausts its declared budget — the
			// earliest point the overrun is observable.
			if abort := s.nextAbortTime(); abort < end {
				end = abort
			}
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
		s.record(pick, s.now, end, s.hw, s.hwIdx)
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
