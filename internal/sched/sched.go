// Package sched holds the two classic real-time disciplines the paper
// builds on — Rate Monotonic (static priority by period) and
// Earliest-Deadline-First (dynamic priority by absolute deadline) — with
// their schedulability tests, including the frequency-scaled variants of
// Figure 1 that underpin every RT-DVS policy, and the indexed-heap run
// queue the simulator dispatches from. Each engine picks by the
// discipline's key itself: the simulator through a ReadyQueue, the rtos
// kernel by a scan of its task table.
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
