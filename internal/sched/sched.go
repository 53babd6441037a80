// Package sched holds the two classic real-time disciplines the paper
// builds on — Rate Monotonic (static priority by period) and
// Earliest-Deadline-First (dynamic priority by absolute deadline) — with
// their schedulability tests, including the frequency-scaled variants of
// Figure 1 that underpin every RT-DVS policy, and two indexed-heap
// priority queues that only the system benchmark's ladder times. Each
// engine picks by the discipline's key itself: the simulator from a
// ready bitset over its priority order, the rtos kernel from a ready
// bitset over its task table.
package sched

import "fmt"

// Kind identifies a scheduling discipline.
type Kind int

// Scheduling disciplines.
const (
	EDF Kind = iota // dynamic priority: earliest absolute deadline first
	RM              // static priority: shortest period first
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case EDF:
		return "EDF"
	case RM:
		return "RM"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}
