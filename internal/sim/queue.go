package sim

import (
	"math/bits"

	"rtdvs/internal/core"
	"rtdvs/internal/sched"
)

// The release order and the run queue. Since a task's deadline is also
// its next release, one order of the tasks by (deadline, index) serves
// as both the release timer and EDF's run queue. Every set keeps that
// order in three parallel slices and its ready set in []uint64 words over
// a priority order, one bit per position: the deadline order itself under
// EDF, the static (period, index) order under RM. A single frame, whose
// tasks share one period and phase, needs no path of its own: its tasks
// all carry one key, so the order is index order, a release instant
// compares each task with its successor once and moves none
// (processReleases), and the pick is the lowest-index active task.

// resetQueues builds the run's release order and run queue from the
// attached task set. A task's first deadline is its phase.
func (s *simulator) resetQueues() {
	n := s.ts.Len()
	s.readyBits = growZeroed(s.readyBits, (n+63)>>6)
	s.ord, s.ordKey, s.ordPos = growZeroed(s.ord, n), growZeroed(s.ordKey, n), growZeroed(s.ordPos, n)
	for i := range n {
		s.ord[i], s.ordKey[i] = i, s.ts.Task(i).Phase
	}
	sortOrder(s.ord, s.ordKey, s.ordPos)
	// EDF's run queue is the deadline order itself; RM's is the static
	// (period, index) order.
	if s.kind == sched.EDF {
		s.prio, s.rank = s.ord, s.ordPos
		return
	}
	s.static, s.staticKey, s.staticPos = growZeroed(s.static, n), growZeroed(s.staticKey, n), growZeroed(s.staticPos, n)
	for i := range n {
		s.static[i], s.staticKey[i] = i, s.ts.Task(i).Period
	}
	sortOrder(s.static, s.staticKey, s.staticPos)
	s.prio, s.rank = s.static, s.staticPos
}

// sortOrder insertion-sorts the permutation ord, with its parallel keys,
// into (key, index) order and fills pos with its inverse. The order is
// core.OrderBefore's, a strict total order, so the policies that read
// the release order as the deadline order (core.OrderedSystem) see the
// order they would sort themselves.
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
// also the run queue: the moved task carries its ready bit from position
// p to q, and the bits of the tasks it passes, p+1..q, shift down one
// place, word by word. Each word's span of positions within p..q takes
// the bits above it shifted down, and its top position takes the next
// word's lowest bit, or the moved bit in q's word.
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
	if s.kind != sched.EDF || q == p {
		return
	}
	rb := s.readyBits
	moved := rb[p>>6] >> uint(p&63) & 1
	for w, lo := p>>6, uint(p&63); w <= q>>6; w, lo = w+1, 0 {
		hi, in := uint(63), moved
		if w == q>>6 {
			hi = uint(q & 63)
		} else {
			in = rb[w+1] & 1
		}
		span := (uint64(1)<<hi<<1 - 1) &^ (uint64(1)<<lo - 1)
		b := rb[w]
		rb[w] = b&^span | (b&span&^(1<<lo))>>1 | in<<hi
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
// order.
//
//rtdvs:hotpath
func (s *simulator) readyAdd(i int) {
	k := s.rank[i]
	s.readyBits[k>>6] |= 1 << uint(k&63)
}

// readyPeek returns the highest-priority active task, or -1 when idle:
// the task at the lowest set bit of the priority order.
//
//rtdvs:hotpath
func (s *simulator) readyPeek() int {
	for w, b := range s.readyBits {
		if b != 0 {
			return s.prio[w<<6|bits.TrailingZeros64(b)]
		}
	}
	return -1
}

// readyRemove drops a completed or aborted task from the ready set.
//
//rtdvs:hotpath
func (s *simulator) readyRemove(i int) {
	k := s.rank[i]
	s.readyBits[k>>6] &^= 1 << uint(k&63)
}

// nextReleaseTime returns the earliest pending release: the head of the
// release order.
//
//rtdvs:hotpath
func (s *simulator) nextReleaseTime() float64 {
	return s.ordKey[0]
}
