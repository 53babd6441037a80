// Package fault is a seeded, composable fault-injection framework for
// the RT-DVS substrates (the discrete-event simulator in internal/sim
// and the RTOS kernel in internal/rtos).
//
// The paper's deadline guarantees (Section 3) rest on two assumptions:
// every job finishes within its declared worst case, and every
// operating-point transition completes within the measured stop
// interval. The cycle-conserving and look-ahead policies actively
// *spend* the slack those assumptions create, so a single violation —
// an overrunning job, a stuck voltage regulator — can cascade into
// deadline misses plain EDF at full speed would never see.
// This package injects exactly those violations, deterministically, so
// the degradation machinery (core.Contained, the kernel's overrun
// watchdog and switch retry path) can be exercised and measured.
//
// Injectable faults:
//
//   - WCET overruns: with per-release probability, a job's actual demand
//     is inflated to OverrunFactor×WCET plus an optional exponential
//     tail — demand beyond the declared bound, condition the admission
//     test assumed impossible.
//   - Frequency-switch failures: a requested transition is denied
//     outright, the operating point gets stuck for StuckSpan ms, or the
//     mandatory stop interval is inflated by OverheadFactor.
//   - Overload regimes: a per-task on/off Markov chain under which every
//     release in an "on" phase overruns to OverloadFactor×WCET — the
//     sustained-overload and burst scenarios (see SustainedOverload and
//     Burst) that iid overruns cannot express.
//
// Draws are keyed by a splitmix64 hash of (seed, fault class, task,
// invocation) rather than consumed from a shared stream, so the overrun
// and overload sequences of a given task set are identical across policies
// — robustness curves compare policies under the *same* fault history.
// Switch faults are keyed by an attempt counter and therefore form an
// independent stream per run.
package fault

import (
	"fmt"
	"math"

	"rtdvs/internal/fpx"
	"rtdvs/internal/machine"
)

// Kind classifies injected faults.
type Kind int

// Fault kinds, in the order they appear in Plan. A kind's number keys
// its hashed draws (see u01), so renumbering one would change every
// fault history; 1 and 2 are unused.
const (
	KindOverrun          Kind = 0
	KindSwitchDenied     Kind = 3
	KindSwitchStuck      Kind = 4
	KindOverheadInflated Kind = 5
	KindOverload         Kind = 6
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindOverrun:
		return "overrun"
	case KindSwitchDenied:
		return "switch-denied"
	case KindSwitchStuck:
		return "switch-stuck"
	case KindOverheadInflated:
		return "overhead-inflated"
	case KindOverload:
		return "overload"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Event records one fired fault.
type Event struct {
	Time float64 `json:"time"`
	Kind Kind    `json:"kind"`
	// Task is the task index the fault hit, or -1 for switch faults.
	Task int `json:"task"`
	// Value carries the kind-specific magnitude: the inflated demand for
	// overruns and overloads, the requested frequency for switch faults,
	// the inflated halt for overhead inflation.
	Value float64 `json:"value"`
}

// Plan configures an Injector. The zero value injects nothing; each
// fault class is enabled by its probability. All probabilities are per
// opportunity (per release for overruns, per transition attempt for
// switch faults).
type Plan struct {
	// Seed keys every draw; two injectors with equal plans fire
	// identical fault sequences.
	Seed int64 `json:"seed"`

	// OverrunProb is the per-release probability that a job's demand is
	// inflated past its declared WCET.
	OverrunProb float64 `json:"overrunProb,omitempty"`
	// OverrunFactor is the demand multiplier when an overrun fires
	// (1.5 means the job needs 1.5×WCET cycles). Zero selects 1.5.
	OverrunFactor float64 `json:"overrunFactor,omitempty"`
	// OverrunTail adds an exponential tail: the factor becomes
	// OverrunFactor + OverrunTail·X with X ~ Exp(1), modeling the
	// heavy-tailed demand spikes of stochastic execution models.
	OverrunTail float64 `json:"overrunTail,omitempty"`

	// SwitchDenyProb denies a transition attempt outright: the hardware
	// stays at its previous operating point.
	SwitchDenyProb float64 `json:"switchDenyProb,omitempty"`
	// StuckProb sticks the operating point for StuckSpan ms: every
	// transition attempted before the span expires is denied.
	StuckProb float64 `json:"stuckProb,omitempty"`
	StuckSpan float64 `json:"stuckSpan,omitempty"`
	// OverheadProb inflates the mandatory stop interval of a granted
	// transition by OverheadFactor (> 1).
	OverheadProb   float64 `json:"overheadProb,omitempty"`
	OverheadFactor float64 `json:"overheadFactor,omitempty"`

	// Overload regimes: a per-task two-state Markov (on/off) chain,
	// advanced one step per invocation. While a task's chain is "on",
	// *every* release overruns to OverloadFactor×WCET (plus an optional
	// exponential tail) — the sustained-overload and burst scenarios the
	// iid OverrunProb model cannot express. OverloadOnProb is the
	// per-invocation off→on transition probability, OverloadOffProb the
	// on→off probability; their ratio sets the duty cycle, their
	// magnitudes the regime dwell times. The chain is a pure function of
	// (Seed, task, invocation), so the overload history is identical
	// across policies and unaffected by skipped invocations.
	OverloadOnProb  float64 `json:"overloadOnProb,omitempty"`
	OverloadOffProb float64 `json:"overloadOffProb,omitempty"`
	// OverloadFactor is the demand multiplier while the regime is on
	// (zero selects 1.8); OverloadTail adds OverloadTail·Exp(1) on top.
	OverloadFactor float64 `json:"overloadFactor,omitempty"`
	OverloadTail   float64 `json:"overloadTail,omitempty"`
}

// Default is the repository's default fault scenario: 5% of releases
// overrun to 1.5× their declared worst case, nothing else misbehaves.
func Default(seed int64) Plan {
	return Plan{Seed: seed, OverrunProb: 0.05, OverrunFactor: 1.5}
}

// SustainedOverload is the persistent-overload regime: the Markov chain
// flips on almost immediately (off→on 0.9 per invocation) and stays on
// for ~50 invocations at a time (on→off 0.02), overrunning every release
// in the regime to 1.6×WCET. This is the scenario feedback control is
// for — a declared-WCET policy pins f_max and still misses, while a
// rate controller converges to its setpoint.
func SustainedOverload(seed int64) Plan {
	return Plan{Seed: seed, OverloadOnProb: 0.9, OverloadOffProb: 0.02, OverloadFactor: 1.6}
}

// Burst is the bursty-overload regime: short heavy episodes (mean dwell
// 4 invocations at 2×WCET with a 0.3·Exp(1) tail) separated by ~20
// quiet invocations — the shape that stresses containment latency and
// recovery hysteresis rather than steady-state tracking.
func Burst(seed int64) Plan {
	return Plan{Seed: seed, OverloadOnProb: 0.05, OverloadOffProb: 0.25,
		OverloadFactor: 2.0, OverloadTail: 0.3}
}

// Validate checks the plan's structural invariants.
func (p Plan) Validate() error {
	for _, pr := range []struct {
		name string
		v    float64
	}{
		{"OverrunProb", p.OverrunProb}, {"SwitchDenyProb", p.SwitchDenyProb},
		{"StuckProb", p.StuckProb}, {"OverheadProb", p.OverheadProb},
		{"OverloadOnProb", p.OverloadOnProb}, {"OverloadOffProb", p.OverloadOffProb},
	} {
		if pr.v < 0 || pr.v > 1 || math.IsNaN(pr.v) {
			return fmt.Errorf("fault: %s must lie in [0, 1], got %v", pr.name, pr.v)
		}
	}
	if p.OverrunFactor < 0 || (fpx.Ne(p.OverrunFactor, 0) && p.OverrunFactor < 1) {
		return fmt.Errorf("fault: OverrunFactor must be ≥ 1 (or 0 for the default), got %v", p.OverrunFactor)
	}
	if p.OverrunTail < 0 {
		return fmt.Errorf("fault: OverrunTail must be non-negative, got %v", p.OverrunTail)
	}
	if p.OverloadFactor < 0 || (fpx.Ne(p.OverloadFactor, 0) && p.OverloadFactor < 1) {
		return fmt.Errorf("fault: OverloadFactor must be ≥ 1 (or 0 for the default), got %v", p.OverloadFactor)
	}
	if p.OverloadTail < 0 {
		return fmt.Errorf("fault: OverloadTail must be non-negative, got %v", p.OverloadTail)
	}
	if p.StuckSpan < 0 {
		return fmt.Errorf("fault: StuckSpan must be non-negative, got %v", p.StuckSpan)
	}
	if p.OverheadProb > 0 && p.OverheadFactor < 1 {
		return fmt.Errorf("fault: OverheadFactor must be ≥ 1 when OverheadProb > 0, got %v", p.OverheadFactor)
	}
	return nil
}

// Record accumulates the faults an injector has fired.
type Record struct {
	// Counters per fault class.
	Overruns          int `json:"overruns"`
	SwitchesDenied    int `json:"switchesDenied"`
	SwitchesStuck     int `json:"switchesStuck"`
	OverheadsInflated int `json:"overheadsInflated"`
	Overloads         int `json:"overloads,omitempty"`
	// TaskOverruns counts injected overruns per task index.
	TaskOverruns map[int]int `json:"taskOverruns,omitempty"`
	// Events holds the first maxEvents fired faults in order.
	Events []Event `json:"events,omitempty"`
	// Truncated counts events dropped beyond the Events cap.
	Truncated int `json:"truncated,omitempty"`
}

// Total returns the total number of fired faults.
func (r Record) Total() int {
	return r.Overruns + r.SwitchesDenied + r.SwitchesStuck +
		r.OverheadsInflated + r.Overloads
}

// maxEvents bounds the per-injector event list (the counters keep full
// totals; the list exists for diagnosis, not statistics).
const maxEvents = 4096

// Injector draws faults deterministically from a Plan. It is stateful
// (overload chains, stuck spans, the fired-fault record) and not safe for
// concurrent use; create one per run.
type Injector struct {
	plan Plan
	rec  Record

	// violated latches once a fired fault has broken the task model the
	// admission guarantee was computed against (see noteViolation).
	violated bool

	stuckUntil float64        // operating point stuck until this time
	switchSeq  uint64         // transition attempt counter (draw key)
	regimes    map[int]regime // per-task overload Markov-chain state
}

// regime is one task's overload-chain state. The chain is advanced
// exactly once per invocation index (skipped invocations are stepped
// through on the next call), so the on/off history is a pure function of
// (seed, task, invocation) regardless of call order.
type regime struct {
	on      bool
	lastInv int
	seen    bool
}

// New creates an injector for the plan.
func New(plan Plan) (*Injector, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	if fpx.Eq(plan.OverrunFactor, 0) {
		plan.OverrunFactor = 1.5
	}
	if fpx.Eq(plan.OverloadFactor, 0) {
		plan.OverloadFactor = 1.8
	}
	return &Injector{plan: plan, regimes: map[int]regime{}}, nil
}

// MustNew is New that panics on error; intended for tests and literal
// plans.
func MustNew(plan Plan) *Injector {
	in, err := New(plan)
	if err != nil {
		panic(err)
	}
	return in
}

// Plan returns the injector's (normalized) plan.
func (in *Injector) Plan() Plan { return in.plan }

// Record returns a snapshot of the fired-fault record.
func (in *Injector) Record() Record {
	r := in.rec
	r.Events = append([]Event(nil), in.rec.Events...)
	if in.rec.TaskOverruns != nil {
		r.TaskOverruns = make(map[int]int, len(in.rec.TaskOverruns))
		for k, v := range in.rec.TaskOverruns {
			r.TaskOverruns[k] = v
		}
	}
	return r
}

// ModelViolated reports whether any fired fault has broken an assumption
// the admission guarantee depends on: an injected overrun or overload, a
// denied/stuck transition to a *higher* frequency, or an inflated stop
// interval. A configured-but-silent injector reports false — the
// provenance the invariant checker needs to keep the no-miss claim fully
// enforced until a fault actually fires.
func (in *Injector) ModelViolated() bool { return in.violated }

func (in *Injector) noteViolation() { in.violated = true }

func (in *Injector) fire(e Event) {
	switch e.Kind {
	case KindOverrun:
		in.rec.Overruns++
		if in.rec.TaskOverruns == nil {
			in.rec.TaskOverruns = map[int]int{}
		}
		in.rec.TaskOverruns[e.Task]++
	case KindSwitchDenied:
		in.rec.SwitchesDenied++
	case KindSwitchStuck:
		in.rec.SwitchesStuck++
	case KindOverheadInflated:
		in.rec.OverheadsInflated++
	case KindOverload:
		in.rec.Overloads++
	}
	if len(in.rec.Events) < maxEvents {
		in.rec.Events = append(in.rec.Events, e)
	} else {
		in.rec.Truncated++
	}
}

// Demand possibly inflates the actual demand of invocation inv of task
// ti beyond its declared worst case: the iid overrun model and the
// Markov overload regime are evaluated independently and the larger
// injected demand wins. nominal is the demand the execution model drew
// (already clamped to (0, wcet]); the result is either nominal (no
// fault) or a value strictly above wcet.
func (in *Injector) Demand(now float64, ti, inv int, wcet, nominal float64) float64 {
	if in == nil {
		return nominal
	}
	d := nominal
	if in.plan.OverrunProb > 0 &&
		u01(in.plan.Seed, KindOverrun, ti, inv) < in.plan.OverrunProb {
		factor := in.plan.OverrunFactor
		if in.plan.OverrunTail > 0 {
			u := u01(in.plan.Seed, kindOverrunTail, ti, inv)
			factor += in.plan.OverrunTail * -math.Log(1-u)
		}
		// Factor 1 (or numeric degeneration) is not an overrun: the
		// demand still fits the declared bound, so nothing fired.
		if od := wcet * factor; od > wcet {
			in.fire(Event{Time: now, Kind: KindOverrun, Task: ti, Value: od})
			in.noteViolation()
			if od > d {
				d = od
			}
		}
	}
	if in.plan.OverloadOnProb > 0 && in.overloadOn(ti, inv) {
		factor := in.plan.OverloadFactor
		if in.plan.OverloadTail > 0 {
			u := u01(in.plan.Seed, kindOverloadTail, ti, inv)
			factor += in.plan.OverloadTail * -math.Log(1-u)
		}
		if od := wcet * factor; od > wcet {
			in.fire(Event{Time: now, Kind: KindOverload, Task: ti, Value: od})
			in.noteViolation()
			if od > d {
				d = od
			}
		}
	}
	return d
}

// overloadOn advances task ti's overload chain through every invocation
// up to inv and reports whether the regime is on at inv. Stepping
// through skipped invocations keeps the state a pure function of the
// invocation index: a single per-invocation draw decides both
// transitions (off→on below OverloadOnProb, on→off below
// OverloadOffProb), interpreted by the current state.
func (in *Injector) overloadOn(ti, inv int) bool {
	r := in.regimes[ti]
	if !r.seen {
		r.lastInv, r.seen = -1, true
	}
	for k := r.lastInv + 1; k <= inv; k++ {
		u := u01(in.plan.Seed, KindOverload, ti, k)
		if r.on {
			r.on = u >= in.plan.OverloadOffProb
		} else {
			r.on = u < in.plan.OverloadOnProb
		}
	}
	if inv > r.lastInv {
		r.lastInv = inv
	}
	in.regimes[ti] = r
	return r.on
}

// Private draw classes for the tail magnitudes, distinct from the firing
// decisions so magnitude and probability are independent draws.
const (
	kindOverrunTail  Kind = 100
	kindOverloadTail Kind = 103
)

// Switch adjudicates a transition attempt from -> to whose nominal stop
// interval is halt. allowed=false means the hardware refused the
// transition and stays at from; otherwise adjHalt is the (possibly
// inflated) stop interval to charge. A denial of an *upward* transition
// (to.Freq > from.Freq) breaks the task model — the policy needed more
// speed than it got; downward denials only cost energy.
func (in *Injector) Switch(now float64, from, to machine.OperatingPoint, halt float64) (allowed bool, adjHalt float64) {
	if in == nil {
		return true, halt
	}
	seq := in.switchSeq
	in.switchSeq++

	deny := false
	kind := KindSwitchDenied
	if now < in.stuckUntil {
		deny = true
		kind = KindSwitchStuck
	} else {
		if in.plan.StuckProb > 0 &&
			u01(in.plan.Seed, KindSwitchStuck, int(seq), 0) < in.plan.StuckProb {
			in.stuckUntil = now + in.plan.StuckSpan
			deny = true
			kind = KindSwitchStuck
		} else if in.plan.SwitchDenyProb > 0 &&
			u01(in.plan.Seed, KindSwitchDenied, int(seq), 0) < in.plan.SwitchDenyProb {
			deny = true
		}
	}
	if deny {
		in.fire(Event{Time: now, Kind: kind, Task: -1, Value: to.Freq})
		if to.Freq > from.Freq {
			in.noteViolation()
		}
		return false, 0
	}
	if halt > 0 && in.plan.OverheadProb > 0 &&
		u01(in.plan.Seed, KindOverheadInflated, int(seq), 0) < in.plan.OverheadProb {
		halt *= in.plan.OverheadFactor
		in.fire(Event{Time: now, Kind: KindOverheadInflated, Task: -1, Value: halt})
		in.noteViolation()
	}
	return true, halt
}
