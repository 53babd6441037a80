package rtos

import (
	"fmt"
	"strings"
)

// EventKind classifies kernel trace events.
type EventKind int

// Kernel trace event kinds.
const (
	EvRelease EventKind = iota
	EvComplete
	EvMiss
	EvOverrun
	EvSwitch
	EvTaskAdded
	EvTaskRemoved
	EvPolicySwap
	// 8 is unused: a kind's number is hashed by the kernel pins, so the
	// kinds after it keep theirs.
	_
	// EvContain records the containment layer escalating to full speed
	// for a job running past its declared worst case.
	EvContain
	// EvRedeclare records the overrun watchdog raising a repeatedly
	// overrunning task's declared WCET to its observed demand.
	EvRedeclare
	// EvDemote records the overrun watchdog shedding a task's hard
	// guarantee (demotion to soft) when redeclaration is unschedulable.
	EvDemote
	// EvShed records the load shedder demoting a task to m-k firm
	// degraded service (skipping a fraction of its jobs) under sustained
	// overload; EvUnshed records the hysteresis recovery restoring it.
	EvShed
	EvUnshed
	// EvSkip records one job of a shed task being dropped at its release
	// instant (never run, never counted as released or missed).
	EvSkip
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EvRelease:
		return "release"
	case EvComplete:
		return "complete"
	case EvMiss:
		return "MISS"
	case EvOverrun:
		return "overrun"
	case EvSwitch:
		return "switch"
	case EvTaskAdded:
		return "task+"
	case EvTaskRemoved:
		return "task-"
	case EvPolicySwap:
		return "policy"
	case EvContain:
		return "contain"
	case EvRedeclare:
		return "redeclare"
	case EvDemote:
		return "DEMOTE"
	case EvShed:
		return "SHED"
	case EvUnshed:
		return "unshed"
	case EvSkip:
		return "skip"
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
}

// Event is one entry of the kernel trace, in the spirit of an RTOS trace
// buffer (release/completion/switch records with a timestamp).
type Event struct {
	Time float64   `json:"time"`
	Kind EventKind `json:"kind"`
	Task TaskID    `json:"task,omitempty"`
	Name string    `json:"name,omitempty"`
	// Value carries the kind-specific quantity: the invocation index for
	// releases/completions/misses, the demand for overruns, the new
	// frequency for switches.
	Value float64 `json:"value,omitempty"`
}

// String formats the event as one trace line.
func (e Event) String() string {
	switch e.Kind {
	case EvSwitch:
		return fmt.Sprintf("%10.3f  %-8s f=%.3g", e.Time, e.Kind, e.Value)
	case EvRedeclare:
		return fmt.Sprintf("%10.3f  %-8s %s(%d) wcet=%g", e.Time, e.Kind, e.Name, e.Task, e.Value)
	case EvPolicySwap:
		return fmt.Sprintf("%10.3f  %-8s %s", e.Time, e.Kind, e.Name)
	default:
		return fmt.Sprintf("%10.3f  %-8s %s(%d) inv=%g", e.Time, e.Kind, e.Name, e.Task, e.Value)
	}
}

// EventLog is a bounded ring buffer of kernel events. The zero value is
// unusable; create with NewEventLog. When full, the oldest events are
// overwritten and counted as dropped — the fixed-memory discipline of an
// embedded trace buffer.
type EventLog struct {
	buf     []Event
	start   int
	n       int
	dropped int
}

// NewEventLog creates a log holding up to capacity events.
func NewEventLog(capacity int) *EventLog {
	if capacity <= 0 {
		capacity = 1024
	}
	return &EventLog{buf: make([]Event, capacity)}
}

// Add appends an event, evicting the oldest when full.
func (l *EventLog) Add(e Event) {
	if l.n < len(l.buf) {
		l.buf[(l.start+l.n)%len(l.buf)] = e
		l.n++
		return
	}
	l.buf[l.start] = e
	l.start = (l.start + 1) % len(l.buf)
	l.dropped++
}

// Len returns the number of retained events.
func (l *EventLog) Len() int { return l.n }

// Dropped returns the number of events evicted by wraparound.
func (l *EventLog) Dropped() int { return l.dropped }

// Events returns the retained events in chronological order.
func (l *EventLog) Events() []Event {
	out := make([]Event, l.n)
	for i := 0; i < l.n; i++ {
		out[i] = l.buf[(l.start+i)%len(l.buf)]
	}
	return out
}

// Filter returns the retained events of one kind, in order.
func (l *EventLog) Filter(kind EventKind) []Event {
	var out []Event
	for _, e := range l.Events() {
		if e.Kind == kind {
			out = append(out, e)
		}
	}
	return out
}

// String dumps the log, one line per event.
func (l *EventLog) String() string {
	var b strings.Builder
	if l.dropped > 0 {
		fmt.Fprintf(&b, "(%d events dropped)\n", l.dropped)
	}
	for _, e := range l.Events() {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// SetEventLog attaches a trace buffer to the kernel; nil detaches.
func (k *Kernel) SetEventLog(l *EventLog) { k.log = l }

// EventLog returns the attached trace buffer, if any.
func (k *Kernel) EventLog() *EventLog { return k.log }

// logEvent records an event if a log is attached.
func (k *Kernel) logEvent(e Event) {
	if k.log != nil {
		e.Time = k.now
		k.log.Add(e)
	}
}
