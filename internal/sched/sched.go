// Package sched holds the two classic real-time disciplines the paper
// builds on — Rate Monotonic (static priority by period) and
// Earliest-Deadline-First (dynamic priority by absolute deadline) — with
// their schedulability tests, including the frequency-scaled variants of
// Figure 1 that underpin every RT-DVS policy, the one release order and
// run queue (Order) that the simulator and the rtos kernel both run on,
// and two indexed-heap priority queues that only the system benchmark's
// ladder times.
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

// GrowZeroed returns a zeroed slice of length n, reusing s's backing
// array when its capacity suffices, so a structure rebuilt for each run
// (an Order, a simulator's state, a policy's bookkeeping on Attach)
// reaches a steady state that allocates nothing.
func GrowZeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}
