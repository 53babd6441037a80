package sim

import (
	"math/bits"

	"rtdvs/internal/core"
	"rtdvs/internal/sched"
)

// The release order and the run queue. Since a task's deadline is also
// its next release, one order of the tasks by (deadline, index) serves
// as both the release timer and EDF's run queue. A set of up to 64
// tasks keeps that order in three parallel slices and its ready set in
// one uint64 over a priority order; a larger set keeps the two index
// heaps of internal/sched.

// maxBitmaskTasks is the largest set whose ready set fits one uint64.
const maxBitmaskTasks = 64

// resetQueues builds the run's release order and run queue from the
// attached task set. A task's first deadline is its phase.
func (s *simulator) resetQueues() {
	n := s.ts.Len()
	s.readyBits = 0
	s.heaps = n > maxBitmaskTasks
	s.ordered, s.carry = false, false
	if s.heaps {
		s.timers.Reset(n)
		s.ready.Reset(n)
		for i := range n {
			s.timerAdd(i, s.ts.Task(i).Phase)
		}
		return
	}
	// EDF's run queue is the deadline order itself, except in a single
	// frame, where every active job carries one deadline and index order
	// is the answer. The release table makes the order unnecessary as a
	// timer.
	s.carry = s.kind == sched.EDF && !s.frame
	s.ordered = !s.table || s.carry
	if s.ordered {
		s.ord, s.ordKey, s.ordPos = growZeroed(s.ord, n), growZeroed(s.ordKey, n), growZeroed(s.ordPos, n)
		for i := range n {
			s.ord[i], s.ordKey[i] = i, s.ts.Task(i).Phase
		}
		sortOrder(s.ord, s.ordKey, s.ordPos)
	}
	if s.carry {
		s.prio, s.rank = s.ord, s.ordPos
		return
	}
	// RM, or a single frame under EDF: the static (period, index) order,
	// which is index order for a frame.
	s.static, s.staticKey, s.staticPos = growZeroed(s.static, n), growZeroed(s.staticKey, n), growZeroed(s.staticPos, n)
	for i := range n {
		s.static[i], s.staticKey[i] = i, s.ts.Task(i).Period
	}
	sortOrder(s.static, s.staticKey, s.staticPos)
	s.prio, s.rank = s.static, s.staticPos
}

// sortOrder insertion-sorts the permutation ord, with its parallel keys,
// into (key, index) order and fills pos with its inverse. The order is
// core.OrderBefore's, which compares exactly like sched.ReadyQueue.less,
// so it is a strict total order, and the policies that read the release
// order as the deadline order (core.OrderedSystem) see the order they
// would sort themselves.
func sortOrder(ord []int, key []float64, pos []int) {
	for k := 1; k < len(ord); k++ {
		i, ki := ord[k], key[k]
		j := k
		for j > 0 && core.OrderBefore(ki, i, key[j-1], ord[j-1]) {
			ord[j], key[j] = ord[j-1], key[j-1]
			j--
		}
		ord[j], key[j] = i, ki
	}
	for k, i := range ord {
		pos[i] = k
	}
}

// reorder moves task i, whose deadline has just moved later, back to its
// place in the release order by one insertion. Under EDF the order is
// also the run queue: the moved task carries its ready bit, and the bits
// of the tasks it passes shift down one place.
//
//rtdvs:hotpath
func (s *simulator) reorder(i int) {
	key := s.states[i].deadline
	p := s.ordPos[i]
	q := p
	for q+1 < len(s.ord) && core.OrderBefore(s.ordKey[q+1], s.ord[q+1], key, i) {
		next := s.ord[q+1]
		s.ord[q], s.ordKey[q], s.ordPos[next] = next, s.ordKey[q+1], q
		q++
	}
	s.ord[q], s.ordKey[q], s.ordPos[i] = i, key, q
	if s.carry && q > p {
		b := s.readyBits
		passed := (uint64(1)<<uint(q+1) - 1) &^ (uint64(1)<<uint(p+1) - 1)
		moved := b >> uint(p) & 1
		s.readyBits = b&^(passed|1<<uint(p)) | (b&passed)>>1 | moved<<uint(q)
	}
}

// timerAdd enqueues task i's next release on the timer heap of a set
// larger than the bitmask. The heap holds every task exactly once
// outside processReleases, so a failed push is an engine bug, not a
// recoverable condition.
//
//rtdvs:hotpath
func (s *simulator) timerAdd(i int, at float64) {
	if err := s.timers.Push(i, at); err != nil {
		panic(err)
	}
}

// readyKey returns task i's run-queue priority under the attached
// scheduling discipline: absolute deadline for EDF, period for RM, ties
// to the lower index in the queue — the same order the rtos kernel's
// pick scan applies.
//
//rtdvs:hotpath
func (s *simulator) readyKey(i int) float64 {
	if s.kind == sched.RM {
		return s.states[i].period
	}
	return s.states[i].deadline
}

// readyAdd enqueues a newly activated task: its bit in the priority
// order, or a run-queue push for a set larger than the bitmask.
// Activation is always paired with deactivation (completion, miss,
// abort), so a duplicate push is an engine bug.
//
//rtdvs:hotpath
func (s *simulator) readyAdd(i int) {
	if s.heaps {
		if err := s.ready.Push(i, s.readyKey(i)); err != nil {
			panic(err)
		}
		return
	}
	s.readyBits |= 1 << uint(s.rank[i])
}

// readyPeek returns the highest-priority active task, or -1 when idle:
// the task at the lowest set bit of the priority order.
//
//rtdvs:hotpath
func (s *simulator) readyPeek() int {
	if s.heaps {
		return s.ready.Peek()
	}
	if s.readyBits == 0 {
		return -1
	}
	return s.prio[bits.TrailingZeros64(s.readyBits)]
}

// readyRemove drops a completed or aborted task from the ready set.
//
//rtdvs:hotpath
func (s *simulator) readyRemove(i int) {
	if s.heaps {
		s.ready.Remove(i)
		return
	}
	s.readyBits &^= 1 << uint(s.rank[i])
}

// nextReleaseTime returns the earliest pending release: the release
// table's cursor, the timer heap's minimum, or the head of the release
// order.
//
//rtdvs:hotpath
func (s *simulator) nextReleaseTime() float64 {
	switch {
	case s.table:
		return s.tab.next
	case s.heaps:
		return s.timers.PeekKey()
	}
	return s.ordKey[0]
}
