package rtos

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"rtdvs/internal/backoff"
	"rtdvs/internal/core"
	"rtdvs/internal/fault"
	"rtdvs/internal/machine"
	"rtdvs/internal/sched"
	"rtdvs/internal/task"
)

// timeEps absorbs floating-point drift when comparing event times.
const timeEps = 1e-9

// TaskID identifies a registered task for the lifetime of the kernel.
type TaskID int

// WorkModel yields the actual computation demand (cycles, i.e.
// milliseconds at maximum frequency) of a task's inv-th invocation. A nil
// model consumes the full worst case.
type WorkModel func(inv int) float64

// TaskConfig registers a periodic real-time task, the analogue of a task
// writing its period and maximum computing bound into the /procfs
// interface of the prototype.
type TaskConfig struct {
	Name   string
	Period float64 // ms
	WCET   float64 // ms at maximum frequency
	// Work models actual demand per invocation; nil means full WCET.
	Work WorkModel
	// ColdStartExtra adds this many cycles to the first invocation only,
	// modeling the cold cache/TLB/page-fault overruns the paper observed
	// on first invocations (Section 4.3). The demand may then exceed the
	// declared WCET, which is recorded as an overrun.
	ColdStartExtra float64
	// OnComplete, when non-nil, is called at each invocation completion
	// with the virtual time and invocation index (used by the periodic
	// server to retire aperiodic jobs).
	OnComplete func(now float64, inv int)
	// Soft marks a task whose work has no hard deadline of its own (the
	// aperiodic servers): an invocation still unfinished at the period
	// end is quietly abandoned — its backlog rolls into the next period's
	// plan — instead of being recorded as a deadline miss.
	Soft bool
	// Value ranks the task for load shedding (see SetLoadShedding):
	// under sustained overload the shedder degrades the lowest-value
	// tasks first. Zero is the default (least valuable) rank.
	Value float64
}

// MissEvent records a deadline miss observed by the kernel.
type MissEvent struct {
	Task     TaskID  `json:"task"`
	Name     string  `json:"name"`
	Inv      int     `json:"inv"`
	Deadline float64 `json:"deadline"`
}

// OverrunEvent records an invocation whose actual demand exceeded the
// declared worst case (condition C2 violated).
type OverrunEvent struct {
	Task   TaskID  `json:"task"`
	Name   string  `json:"name"`
	Inv    int     `json:"inv"`
	Demand float64 `json:"demand"`
	WCET   float64 `json:"wcet"`
}

// ktask is the kernel's per-task control block.
type ktask struct {
	id  TaskID
	cfg TaskConfig

	startAt     float64 // first release time (deferred admission)
	nextRelease float64 // when the next invocation fires
	deadline    float64
	remaining   float64
	used        float64
	active      bool
	inv         int
	releasedAt  float64
	// overNotified latches the per-invocation OnOverrun delivery.
	overNotified bool
	// maxDemand tracks the largest demand observed, the bound the overrun
	// watchdog redeclares to.
	maxDemand float64

	releases    int
	completions int
	misses      int
	overruns    int
	// injected counts overruns manufactured by the fault injector (a
	// subset of overruns); containments counts OnOverrun deliveries.
	injected     int
	containments int
	// sinceAdapt counts overruns since the watchdog last adapted this task.
	sinceAdapt int

	// shed marks the task demoted to m-k firm degraded service by the
	// load shedder; skips counts its dropped jobs.
	shed  bool
	skips int

	// sporadic tasks are released by Trigger, never by the clock;
	// lastRelease enforces the minimum inter-arrival time.
	sporadic    bool
	lastRelease float64
}

// Kernel is the real-time executive: it owns the task registry, drives the
// CPU device in virtual time, and delegates frequency selection to a
// hot-swappable RT-DVS policy module.
type Kernel struct {
	cpu    *CPU
	policy core.Policy
	// kind caches the policy's scheduling discipline for pick, and aware
	// the policy as a core.OverrunAware (nil when it is not one); both
	// are set with the policy.
	kind   sched.Kind
	aware  core.OverrunAware
	now    float64
	tasks  []*ktask
	nextID TaskID
	// released is processReleases' scratch list of the indices it fired.
	released []int

	// The index beside the registry, so that a scheduling point visits
	// tasks only when there is something to find: earliest is the
	// earliest nextRelease of any task, sporadics the number of sporadic
	// tasks, and ready holds one bit per task index, set while that
	// task's invocation is active. The registry operations rebuild it
	// (reindex); Trigger, processReleases, a completion in Step and
	// AddDemand keep it current where they change a task.
	earliest  float64
	sporadics int
	ready     []uint64

	misses   []MissEvent
	overruns []OverrunEvent
	log      *EventLog
	// haltUntil marks the end of an in-progress transition stop interval;
	// no task executes before it, even across Step boundaries.
	haltUntil float64
	// admitAll disables admission control (used to demonstrate transient
	// misses from unguarded task addition).
	admitAll bool

	// faults, when set, filters demand and operating-point transitions
	// through the injector.
	faults *fault.Injector
	// switchRetryAt/switchSeq implement retry-with-backoff for refused
	// operating-point transitions: after a denial the kernel holds its
	// point until switchRetryAt, then asks again, with the shared
	// internal/backoff schedule doubling the delay on each consecutive
	// refusal. switchSeq advances in simulated milliseconds — the kernel
	// never reads the wall clock.
	switchRetryAt float64
	switchSeq     backoff.Seq
	switchDenials int
	switchRetries int
	// overrunThreshold arms the overrun watchdog (0 = disabled).
	overrunThreshold int

	// Load-shedder state (see shed.go): the active configuration, the
	// LIFO order tasks were shed in, the consecutive hot/calm window
	// counters, the current window's end and opening snapshots, and the
	// lifetime shed/recovery totals.
	shedCfg   ShedConfig
	shedOrder []TaskID
	hotWins   int
	calmWins  int
	winEnd    float64
	winRel0   int
	winMiss0  int

	shedsTotal   int
	unshedsTotal int
}

// NewKernel creates a kernel on the given platform with the given initial
// policy module.
func NewKernel(spec *machine.Spec, overhead machine.SwitchOverhead, policy core.Policy) (*Kernel, error) {
	cpu, err := NewCPU(spec, overhead)
	if err != nil {
		return nil, err
	}
	if policy == nil {
		return nil, fmt.Errorf("rtos: nil policy module")
	}
	aware, _ := policy.(core.OverrunAware)
	return &Kernel{cpu: cpu, policy: policy, kind: policy.Scheduler(), aware: aware, earliest: math.Inf(1)}, nil
}

// Now returns the current virtual time in milliseconds.
func (k *Kernel) Now() float64 { return k.now }

// CPU returns the processor device.
func (k *Kernel) CPU() *CPU { return k.cpu }

// Policy returns the active policy module.
func (k *Kernel) Policy() core.Policy { return k.policy }

// Misses returns all deadline misses observed so far.
func (k *Kernel) Misses() []MissEvent { return append([]MissEvent(nil), k.misses...) }

// Overruns returns all WCET overruns observed so far.
func (k *Kernel) Overruns() []OverrunEvent { return append([]OverrunEvent(nil), k.overruns...) }

// SetAdmitAll disables (true) or enables (false) admission control.
func (k *Kernel) SetAdmitAll(v bool) { k.admitAll = v }

// SetFaults installs a fault injector: task demand and operating-point
// transitions are filtered through it from then on. nil removes
// injection. The injector is stateful (stuck-regulator spans, overload
// chains), so install it before the workload starts for reproducible
// runs.
func (k *Kernel) SetFaults(in *fault.Injector) {
	k.faults = in
	if in == nil {
		k.cpu.SetGate(nil)
		return
	}
	k.cpu.SetGate(func(from, to machine.OperatingPoint, halt float64) (bool, float64) {
		return in.Switch(k.now, from, to, halt)
	})
}

// Faults returns the installed fault injector, if any.
func (k *Kernel) Faults() *fault.Injector { return k.faults }

// SwitchDenials returns how many operating-point transitions the hardware
// refused; SwitchRetries returns how many retry attempts followed a
// refusal (successful or not).
func (k *Kernel) SwitchDenials() int { return k.switchDenials }

// SwitchRetries returns the number of post-denial retry attempts.
func (k *Kernel) SwitchRetries() int { return k.switchRetries }

// SetOverrunThreshold arms the overrun watchdog: once a hard task
// accumulates n overruns since its last adaptation, the kernel re-runs
// the schedulability test with the task's observed peak demand as its
// bound and either redeclares the WCET (still schedulable) or demotes
// the task to soft, shedding its hard guarantee so the rest of the set
// keeps its own. n <= 0 disables the watchdog, the default.
func (k *Kernel) SetOverrunThreshold(n int) { k.overrunThreshold = n }

// taskSet snapshots the registry as a task.Set for policy attachment.
func (k *Kernel) taskSet() (*task.Set, error) {
	ts := make([]task.Task, len(k.tasks))
	for i, t := range k.tasks {
		ts[i] = task.Task{Name: t.cfg.Name, Period: t.cfg.Period, WCET: t.cfg.WCET}
	}
	return task.NewSet(ts...)
}

// reattach rebuilds the policy's view after any task-set or policy change:
// the policy is re-attached to the new set and the in-flight invocations
// are re-declared (a release followed by the progress already made), so
// DVS decisions immediately reflect the new system characteristics. The
// redeclared frequency choice can only err high (the last re-declared
// release is selected before its progress is credited), which is the safe
// direction; it self-corrects at the next scheduling point.
func (k *Kernel) reattach() error {
	if len(k.tasks) == 0 {
		return nil
	}
	ts, err := k.taskSet()
	if err != nil {
		return err
	}
	if err := k.policy.Attach(ts, k.cpu.spec); err != nil {
		return err
	}
	for i, t := range k.tasks {
		if !t.active {
			continue
		}
		k.policy.OnRelease(k, i)
		if t.used > 0 {
			k.policy.OnExecute(i, t.used)
		}
	}
	return nil
}

// AddOptions controls task admission.
type AddOptions struct {
	// Immediate releases the task right away instead of deferring its
	// first release until the in-flight invocations of all existing tasks
	// have completed. The paper warns that immediate release can cause
	// transient misses with the aggressive policies (Section 4.3).
	Immediate bool
}

// AddTask registers a periodic task. The task joins the policy's task set
// immediately (so DVS decisions account for it), but unless opts.Immediate
// is set its first release is deferred until every invocation currently in
// flight has completed — bounded by those invocations' deadlines — which
// ensures the effects of past DVS decisions based on the old task set have
// expired.
//
// Admission control rejects a set that fails the policy's schedulability
// test at full speed unless SetAdmitAll(true) was called.
func (k *Kernel) AddTask(cfg TaskConfig, opts AddOptions) (TaskID, error) {
	nt := task.Task{Name: cfg.Name, Period: cfg.Period, WCET: cfg.WCET}
	if err := nt.Validate(); err != nil {
		return 0, err
	}
	if !k.admitAll {
		probe := make([]task.Task, 0, len(k.tasks)+1)
		for _, t := range k.tasks {
			probe = append(probe, task.Task{Name: t.cfg.Name, Period: t.cfg.Period, WCET: t.cfg.WCET})
		}
		probe = append(probe, nt)
		ps, err := task.NewSet(probe...)
		if err != nil {
			return 0, err
		}
		if !sched.Test(k.policy.Scheduler())(ps, 1) {
			return 0, fmt.Errorf("rtos: admission denied: %v fails %s schedulability at full speed", ps, k.policy.Scheduler())
		}
	}

	start := k.now
	if !opts.Immediate {
		for _, t := range k.tasks {
			if t.active && t.deadline > start {
				start = t.deadline
			}
		}
	}
	kt := &ktask{
		id:          k.nextID,
		cfg:         cfg,
		startAt:     start,
		nextRelease: start,
		deadline:    start,
	}
	k.nextID++
	k.tasks = append(k.tasks, kt)
	if err := k.reattach(); err != nil {
		// The registry is as it was, so the index still describes it.
		k.tasks = k.tasks[:len(k.tasks)-1]
		return 0, err
	}
	k.reindex()
	k.logEvent(Event{Kind: EvTaskAdded, Task: kt.id, Name: cfg.Name, Value: start})
	return kt.id, nil
}

// RemoveTask deregisters a task (a task closing its /procfs handle in the
// prototype). An in-flight invocation is aborted.
func (k *Kernel) RemoveTask(id TaskID) error {
	for i, t := range k.tasks {
		if t.id == id {
			k.tasks = append(k.tasks[:i], k.tasks[i+1:]...)
			k.reindex()
			k.logEvent(Event{Kind: EvTaskRemoved, Task: t.id, Name: t.cfg.Name})
			return k.reattach()
		}
	}
	return fmt.Errorf("rtos: no task with id %d", id)
}

// SetPolicy hot-swaps the scheduler/RT-DVS policy module without shutting
// down running tasks, as the prototype's module architecture allows.
func (k *Kernel) SetPolicy(p core.Policy) error {
	if p == nil {
		return fmt.Errorf("rtos: nil policy module")
	}
	old, oldKind, oldAware := k.policy, k.kind, k.aware
	k.policy, k.kind = p, p.Scheduler()
	k.aware, _ = p.(core.OverrunAware)
	if err := k.reattach(); err != nil {
		k.policy, k.kind, k.aware = old, oldKind, oldAware
		return err
	}
	k.logEvent(Event{Kind: EvPolicySwap, Name: p.Name()})
	return nil
}

// reindex rebuilds the index from the registry in one scan, after a
// task is added or removed or changes kind.
func (k *Kernel) reindex() {
	k.earliest, k.sporadics = math.Inf(1), 0
	k.ready = make([]uint64, (len(k.tasks)+63)/64)
	for i, t := range k.tasks {
		if t.nextRelease < k.earliest {
			k.earliest = t.nextRelease
		}
		if t.sporadic {
			k.sporadics++
		}
		if t.active {
			k.ready[i>>6] |= 1 << (i & 63)
		}
	}
}

// activate marks task i's invocation released and not yet complete, in
// its control block and in the ready bitset.
//
//rtdvs:hotpath
func (k *Kernel) activate(i int) {
	k.tasks[i].active = true
	k.ready[i>>6] |= 1 << (i & 63)
}

// deactivate ends task i's invocation in its control block and in the
// ready bitset.
//
//rtdvs:hotpath
func (k *Kernel) deactivate(i int) {
	k.tasks[i].active = false
	k.ready[i>>6] &^= 1 << (i & 63)
}

// findByName returns the task with the given name, or nil.
func (k *Kernel) findByName(name string) *ktask {
	for _, t := range k.tasks {
		if t.cfg.Name == name {
			return t
		}
	}
	return nil
}

// --- core.System and the task view the rtdvs facade exports ---

// Deadline implements core.System: for a task whose first release is
// still pending, the first invocation's deadline is reported so the
// policies' reservations see a consistent timeline. A completed
// invocation's deadline is the task's next release.
func (k *Kernel) Deadline(i int) float64 {
	t := k.tasks[i]
	if t.active {
		return t.deadline
	}
	if t.inv == 0 {
		return t.startAt + t.cfg.Period
	}
	return t.nextRelease
}

// NumTasks returns the number of registered tasks; indices 0..NumTasks-1
// address them in registration order, as core.System's callbacks do.
func (k *Kernel) NumTasks() int { return len(k.tasks) }

// Task returns the static parameters of task i.
func (k *Kernel) Task(i int) task.Task {
	t := k.tasks[i]
	return task.Task{Name: t.cfg.Name, Period: t.cfg.Period, WCET: t.cfg.WCET}
}

// Ready reports whether task i is released and not yet complete.
func (k *Kernel) Ready(i int) bool { return k.tasks[i].active }

// --- engine ---

func (k *Kernel) demand(t *ktask, rel float64) float64 {
	c := t.cfg.WCET
	if t.cfg.Work != nil {
		c = t.cfg.Work(t.inv)
	}
	if t.inv == 0 {
		c += t.cfg.ColdStartExtra
	}
	if !(c > 0) {
		// Non-positive and NaN demand alike run a sliver.
		c = math.SmallestNonzeroFloat64
	}
	if k.faults != nil {
		// Keyed by the stable task id, not the registry index, so the
		// fault history survives task removal.
		injected := k.faults.Demand(rel, int(t.id), t.inv, t.cfg.WCET, c)
		if injected > c {
			t.injected++
		}
		c = injected
	}
	if c > t.maxDemand {
		t.maxDemand = c
	}
	if c > t.cfg.WCET+timeEps {
		t.overruns++
		t.sinceAdapt++
		k.overruns = append(k.overruns, OverrunEvent{
			Task: t.id, Name: t.cfg.Name, Inv: t.inv, Demand: c, WCET: t.cfg.WCET,
		})
		k.logEvent(Event{Kind: EvOverrun, Task: t.id, Name: t.cfg.Name, Value: c})
	}
	return c
}

// nextReleaseTime returns the next instant the schedule can change
// without a completion: the earliest pending release (the index's), a
// running sporadic job's deadline, and a pending switch retry.
//
//rtdvs:hotpath
func (k *Kernel) nextReleaseTime() float64 {
	t := k.earliest
	if k.sporadics > 0 {
		// A running sporadic invocation has no follow-on release to
		// expose a deadline overrun, so its deadline is an event too.
		for _, kt := range k.tasks {
			if kt.sporadic && kt.active && kt.deadline < t {
				t = kt.deadline
			}
		}
	}
	if k.faults != nil && k.switchRetryAt > k.now+timeEps && k.switchRetryAt < t {
		t = k.switchRetryAt
	}
	return t
}

// abortJob ends task i's active invocation at its deadline and records
// the miss, unless the task is soft.
//
//rtdvs:hotpath
func (k *Kernel) abortJob(i int) {
	t := k.tasks[i]
	if !t.cfg.Soft {
		t.misses++
		k.misses = append(k.misses, MissEvent{Task: t.id, Name: t.cfg.Name, Inv: t.inv - 1, Deadline: t.deadline})
		k.logEvent(Event{Kind: EvMiss, Task: t.id, Name: t.cfg.Name, Value: float64(t.inv - 1)})
	}
	k.deactivate(i)
}

// processReleases aborts jobs whose deadlines passed, fires every due
// release, notifies the policy of the releases in task order, and then
// runs the overrun watchdog and the load shedder's window. The sporadic
// deadline pass runs only when a sporadic task exists, and the release
// pass only when the index's earliest release is due; the release pass
// visits every task, so it recomputes that earliest release as it goes.
// The watchdog and the shedder run at every point, so a threshold
// changed between Step calls acts at the next point.
//
//rtdvs:hotpath
func (k *Kernel) processReleases() {
	due := k.now + timeEps
	if k.sporadics > 0 {
		// Sporadic invocations have no follow-on release to catch an
		// overrun, so their deadlines are checked directly.
		for i, t := range k.tasks {
			if t.sporadic && t.active && t.deadline <= due {
				k.abortJob(i)
				k.policy.OnCompletion(k, i, t.used) // close out the aborted invocation
			}
		}
	}
	if k.earliest <= due {
		k.released = k.released[:0]
		earliest := math.Inf(1)
		for i, t := range k.tasks {
			for t.nextRelease <= due {
				if t.active {
					k.abortJob(i)
				}
				if t.shed && !t.sporadic && k.shedSkips(t.inv) {
					// Degraded service: this job is dropped whole at its
					// release instant — never released, never run, never a
					// miss. The slot it would have occupied is the relief the
					// shedder traded for the rest of the set's deadlines.
					t.skips++
					t.inv++
					t.nextRelease += t.cfg.Period
					k.logEvent(Event{Kind: EvSkip, Task: t.id, Name: t.cfg.Name, Value: float64(t.inv - 1)})
					continue
				}
				rel := t.nextRelease
				t.remaining = k.demand(t, rel)
				t.used = 0
				t.overNotified = false
				t.releasedAt = rel
				t.deadline = rel + t.cfg.Period
				t.lastRelease = rel
				if t.sporadic {
					t.nextRelease = math.Inf(1) // armed again by the next Trigger
				} else {
					t.nextRelease = t.deadline
				}
				k.activate(i)
				t.inv++
				t.releases++
				k.released = append(k.released, i)
				k.logEvent(Event{Kind: EvRelease, Task: t.id, Name: t.cfg.Name, Value: float64(t.inv - 1)})
			}
			if t.nextRelease < earliest {
				earliest = t.nextRelease
			}
		}
		k.earliest = earliest
		for _, i := range k.released {
			k.policy.OnRelease(k, i)
		}
	}
	k.enforceOverrunPolicy()
	k.evalShedWindow()
}

// Backoff bounds (ms) for retrying operating-point transitions the
// hardware refused: start small (one stop-interval-ish), double per
// consecutive refusal (backoff.Seq), cap well under typical task
// periods.
const (
	switchBackoffInit = 0.05
	switchBackoffMax  = 2.0
)

// setPoint moves the CPU to the requested operating point, tracing the
// transition when an event log is attached. A transition the hardware
// refuses (possible only under fault injection) leaves the processor at
// its previous point; the kernel then backs off and retries at
// switchRetryAt, doubling the backoff on each consecutive refusal so a
// stuck regulator is not hammered every scheduling decision.
func (k *Kernel) setPoint(op machine.OperatingPoint) float64 {
	if op == k.cpu.Point() {
		return 0
	}
	if k.now < k.switchRetryAt-timeEps {
		return 0 // backing off after a refusal: hold the current point
	}
	retrying := k.switchSeq.Active()
	halt, ok := k.cpu.SetPoint(op)
	if retrying {
		k.switchRetries++
	}
	if !ok {
		k.switchDenials++
		k.logEvent(Event{Kind: EvSwitchDenied, Value: op.Freq})
		k.switchRetryAt = k.now + k.switchSeq.Next(switchBackoffInit, switchBackoffMax)
		return 0
	}
	k.switchSeq.Reset()
	k.switchRetryAt = 0
	k.logEvent(Event{Kind: EvSwitch, Value: op.Freq})
	if halt > 0 {
		k.haltUntil = k.now + halt
	}
	return halt
}

// schedulableWith re-runs the policy's schedulability test at full speed
// with target's WCET replaced by wcet.
func (k *Kernel) schedulableWith(target *ktask, wcet float64) bool {
	probe := make([]task.Task, 0, len(k.tasks))
	for _, t := range k.tasks {
		w := t.cfg.WCET
		if t == target {
			w = wcet
		}
		probe = append(probe, task.Task{Name: t.cfg.Name, Period: t.cfg.Period, WCET: w})
	}
	ps, err := task.NewSet(probe...)
	if err != nil {
		return false
	}
	return sched.Test(k.policy.Scheduler())(ps, 1)
}

// enforceOverrunPolicy is the admission-control watchdog: a hard task
// that keeps overrunning its declared worst case has lied to the
// schedulability test, so the kernel re-runs that test against the
// observed peak demand. If the set still passes, the task's WCET is
// redeclared upward (honest admission); if not, the task is demoted to
// soft — its own guarantee is shed so the remaining hard tasks keep
// theirs. Either way the policy re-attaches to the corrected set.
func (k *Kernel) enforceOverrunPolicy() {
	if k.overrunThreshold <= 0 {
		return
	}
	changed := false
	for _, t := range k.tasks {
		if t.cfg.Soft || t.sinceAdapt < k.overrunThreshold {
			continue
		}
		t.sinceAdapt = 0
		redeclared := math.Min(t.maxDemand, t.cfg.Period)
		if redeclared > t.cfg.WCET && k.schedulableWith(t, redeclared) {
			t.cfg.WCET = redeclared
			k.logEvent(Event{Kind: EvRedeclare, Task: t.id, Name: t.cfg.Name, Value: redeclared})
		} else {
			t.cfg.Soft = true
			k.logEvent(Event{Kind: EvDemote, Task: t.id, Name: t.cfg.Name})
		}
		changed = true
	}
	if changed {
		// The adapted set was just revalidated (or the offender shed its
		// guarantee), so re-attachment cannot fail structurally.
		_ = k.reattach()
	}
}

// pick returns the ready task of highest priority under the attached
// discipline, or -1 when none is ready. It visits the ready bitset's set
// bits in ascending index order. The key is sim.readyKey's: the absolute
// deadline under EDF, the period under RM; ties go to the lower index.
//
//rtdvs:hotpath
func (k *Kernel) pick() int {
	rm := k.kind == sched.RM
	best, bestKey := -1, math.Inf(1)
	for w, word := range k.ready {
		for ; word != 0; word &= word - 1 {
			i := w<<6 | bits.TrailingZeros64(word)
			t := k.tasks[i]
			key := t.deadline
			if rm {
				key = t.cfg.Period
			}
			if key < bestKey {
				best, bestKey = i, key
			}
		}
	}
	return best
}

// Step advances virtual time to `until`, executing tasks, switching
// operating points as the policy dictates, and accounting energy in the
// CPU device. It may be called repeatedly, with registry and policy
// changes between calls. A target at or before Now, or one that is not
// finite (NaN or ±Inf), leaves the kernel as it is: virtual time never
// runs backwards, and a run toward +Inf would never end.
//
// Each scheduling point releases what is due, picks among the ready
// tasks and reads the next event, visiting the task table only where the
// index says there is something to find. The next event is read after
// the operating-point decision, so a retry armed by a refused transition
// bounds the span that follows, idle or busy. Minima are branches rather
// than math.Min calls: every operand is a non-negative time (or +Inf),
// where the two agree exactly.
//
//rtdvs:hotpath
func (k *Kernel) Step(until float64) {
	if !(until > k.now) || math.IsInf(until, 1) {
		return
	}
	for k.now < until-timeEps {
		// Finish any in-progress transition stop interval first; it may
		// have been started near the end of a previous Step.
		if k.now < k.haltUntil-timeEps {
			end := k.haltUntil
			if until < end {
				end = until
			}
			span := end - k.now
			k.cpu.AccountHalt(span)
			k.now += span
			continue
		}
		if len(k.tasks) == 0 {
			k.cpu.Idle(until - k.now)
			k.now = until
			return
		}
		k.processReleases()

		pick := k.pick()
		var op machine.OperatingPoint
		if pick < 0 {
			op = k.policy.IdlePoint()
		} else {
			op = k.policy.Point()
		}
		if halt := k.setPoint(op); halt > 0 {
			continue // elapse the stop interval at the loop top
		}
		next := k.nextReleaseTime()
		nextRel := next
		if until < nextRel {
			nextRel = until
		}

		if pick < 0 {
			if nextRel > k.now {
				k.cpu.Idle(nextRel - k.now)
			}
			k.now = nextRel
			continue
		}
		if next <= k.now+timeEps {
			// A sporadic job triggered during a stop interval longer than
			// its period is released with its deadline already passed:
			// abort it before anything runs.
			continue
		}

		t := k.tasks[pick]
		f := k.cpu.Point().Freq
		finish := k.now + t.remaining/f
		end := finish
		if nextRel < end {
			end = nextRel
		}
		// With an overrun-aware policy, split the segment at WCET-budget
		// exhaustion so OnOverrun fires the moment the job runs past its
		// declared bound (stock policies keep the unsplit segments and
		// their byte-identical traces).
		budgetEnd := math.Inf(1)
		if k.aware != nil && !t.overNotified {
			if left := t.cfg.WCET - t.used; left > timeEps && left < t.remaining-timeEps {
				budgetEnd = k.now + left/f
				if budgetEnd < end {
					end = budgetEnd
				}
			}
		}
		dur := end - k.now
		if dur < 0 {
			dur = 0
		}
		cycles := k.cpu.Execute(dur)
		if cycles > t.remaining || finish <= end+timeEps {
			cycles = t.remaining
		} else if budgetEnd <= end+timeEps {
			cycles = t.cfg.WCET - t.used
		}
		t.remaining -= cycles
		t.used += cycles
		k.now = end
		k.policy.OnExecute(pick, cycles)

		if t.remaining <= timeEps {
			t.remaining = 0
			k.deactivate(pick)
			t.completions++
			k.logEvent(Event{Kind: EvComplete, Task: t.id, Name: t.cfg.Name, Value: float64(t.inv - 1)})
			k.policy.OnCompletion(k, pick, t.used)
			if t.cfg.OnComplete != nil {
				t.cfg.OnComplete(k.now, t.inv-1)
			}
		} else if k.aware != nil && !t.overNotified && t.used >= t.cfg.WCET-timeEps {
			t.overNotified = true
			t.containments++
			k.logEvent(Event{Kind: EvContain, Task: t.id, Name: t.cfg.Name, Value: float64(t.inv - 1)})
			k.aware.OnOverrun(k, pick)
		}
	}
	k.now = until
}

// AddDemand injects extra computation into task id's *current* period —
// the kernel mechanism behind the deferrable server, which may serve
// aperiodic work at any point inside its period while budget remains.
//
// The demand is clamped so the invocation's total never exceeds the
// declared WCET (the reservation admission control granted), and is
// rejected entirely once the current period's deadline has passed (the
// caller retries after the next release). A completed invocation is
// re-activated; the policy is re-notified conservatively (a release at
// worst case, with prior progress credited), which can only raise the
// operating frequency.
//
// Note the classic deferrable-server caveat: preserving budget across the
// period makes the worst-case interference on lower-priority work
// slightly larger than an ordinary periodic task's (the back-to-back
// "double hit"). Reservations sized with the plain periodic tests remain
// safe in practice for the modest budgets servers use, but hard
// guarantees require the server-aware bounds; the polling Server keeps
// the unmodified guarantee.
func (k *Kernel) AddDemand(id TaskID, cycles float64) (accepted float64, err error) {
	if !(cycles > 0) {
		return 0, fmt.Errorf("rtos: demand must be positive, got %v", cycles)
	}
	var t *ktask
	var idx int
	for i, kt := range k.tasks {
		if kt.id == id {
			t, idx = kt, i
			break
		}
	}
	if t == nil {
		return 0, fmt.Errorf("rtos: no task with id %d", id)
	}
	if t.inv == 0 || k.now >= t.deadline-timeEps {
		return 0, nil // not yet started, or period over: wait for release
	}
	room := t.cfg.WCET - (t.used + t.remaining)
	if room <= timeEps {
		return 0, nil
	}
	accepted = math.Min(cycles, room)
	wasActive := t.active
	t.remaining += accepted
	k.activate(idx)
	if !wasActive {
		// Conservative policy re-notification: a fresh worst-case release
		// with progress credited.
		k.policy.OnRelease(k, idx)
		if t.used > 0 {
			k.policy.OnExecute(idx, t.used)
		}
	}
	return accepted, nil
}

// TaskStatus is one row of the kernel's /proc-style status output.
type TaskStatus struct {
	ID          TaskID  `json:"id"`
	Name        string  `json:"name"`
	Period      float64 `json:"period"`
	WCET        float64 `json:"wcet"`
	Active      bool    `json:"active"`
	Soft        bool    `json:"soft,omitempty"`
	Deadline    float64 `json:"deadline"`
	Releases    int     `json:"releases"`
	Completions int     `json:"completions"`
	Misses      int     `json:"misses"`
	Overruns    int     `json:"overruns"`
	// Injected counts overruns manufactured by the fault injector (a
	// subset of Overruns); Containments counts overrun-containment
	// escalations delivered for this task.
	Injected     int `json:"injected,omitempty"`
	Containments int `json:"containments,omitempty"`
	// Shed marks a task currently demoted to m-k firm degraded service
	// by the load shedder; Skips counts the jobs dropped while shed.
	Shed  bool `json:"shed,omitempty"`
	Skips int  `json:"skips,omitempty"`
}

// Tasks returns the status of every registered task, sorted by id.
func (k *Kernel) Tasks() []TaskStatus {
	out := make([]TaskStatus, 0, len(k.tasks))
	for _, t := range k.tasks {
		out = append(out, TaskStatus{
			ID: t.id, Name: t.cfg.Name, Period: t.cfg.Period, WCET: t.cfg.WCET,
			Active: t.active, Soft: t.cfg.Soft, Deadline: t.deadline,
			Releases: t.releases, Completions: t.completions,
			Misses: t.misses, Overruns: t.overruns,
			Injected: t.injected, Containments: t.containments,
			Shed: t.shed, Skips: t.skips,
		})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}
