package sched

import (
	"fmt"
	"math"
)

// ReadyQueue is a priority queue of tasks keyed by a float64 priority.
// No engine uses it: the simulator and the rtos kernel both run on
// Order. The system benchmark's ladder (bench/ladder.go) still times it.
// Keys follow the discipline: lower key = higher priority (earlier
// timer), ties broken by task index for determinism.
//
// The implementation is a hand-rolled indexed binary heap rather than
// container/heap: the standard library interface boxes every pushed item
// into an interface{}, which allocates on the hot path. Positions are
// tracked in a dense slice indexed by task id (task ids are small and
// contiguous in this repository), giving O(1) membership tests and
// O(log n) removal/update with zero steady-state allocations. Reset
// retains both backing arrays, so a drained-and-reset queue performs no
// allocation at all on reuse.
type ReadyQueue struct {
	items []readyItem
	// pos maps task index to heap position; -1 means not queued. It grows
	// to the largest task index ever pushed and is retained across Reset.
	pos []int
}

type readyItem struct {
	task int
	key  float64
}

// NewReadyQueue creates an empty queue.
func NewReadyQueue() *ReadyQueue {
	return &ReadyQueue{}
}

// Reset empties the queue, retaining the backing arrays. When n > 0 the
// position index is pre-grown to cover task ids [0, n), so a reused queue
// reaches its steady state (no allocation on Push) immediately.
func (q *ReadyQueue) Reset(n int) {
	q.items = q.items[:0]
	q.growPos(n)
	for i := range q.pos {
		q.pos[i] = -1
	}
}

// growPos extends the position index to cover task ids [0, n).
//
//rtdvs:hotpath
func (q *ReadyQueue) growPos(n int) {
	for len(q.pos) < n {
		q.pos = append(q.pos, -1)
	}
}

// Len returns the number of queued tasks.
func (q *ReadyQueue) Len() int { return len(q.items) }

// less orders heap slots a before b: smaller key first, ties broken by
// task index. Exact ordering, no epsilon: a comparator must stay
// transitive, and restructuring as two ordered tests avoids float
// equality entirely.
//
//rtdvs:hotpath
func (q *ReadyQueue) less(a, b int) bool {
	switch {
	case q.items[a].key < q.items[b].key:
		return true
	case q.items[a].key > q.items[b].key:
		return false
	}
	return q.items[a].task < q.items[b].task
}

//rtdvs:hotpath
func (q *ReadyQueue) swap(a, b int) {
	q.items[a], q.items[b] = q.items[b], q.items[a]
	q.pos[q.items[a].task] = a
	q.pos[q.items[b].task] = b
}

//rtdvs:hotpath
func (q *ReadyQueue) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q.swap(i, parent)
		i = parent
	}
}

//rtdvs:hotpath
func (q *ReadyQueue) siftDown(i int) {
	n := len(q.items)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		least := left
		if right := left + 1; right < n && q.less(right, left) {
			least = right
		}
		if !q.less(least, i) {
			return
		}
		q.swap(i, least)
		i = least
	}
}

// Push adds task ti with the given priority key. Pushing a task already
// in the queue is an error (an invocation is released once).
//
//rtdvs:hotpath
func (q *ReadyQueue) Push(ti int, key float64) error {
	if ti < 0 {
		//rtdvs:ignore hotalloc engine-misuse error on a cold path; steady-state pushes never take it
		return fmt.Errorf("sched: negative task index %d", ti)
	}
	q.growPos(ti + 1)
	if q.pos[ti] >= 0 {
		//rtdvs:ignore hotalloc double-release is an engine bug; correct runs never format this error
		return fmt.Errorf("sched: task %d already queued", ti)
	}
	q.pos[ti] = len(q.items)
	q.items = append(q.items, readyItem{task: ti, key: key})
	q.siftUp(len(q.items) - 1)
	return nil
}

// Peek returns the highest-priority task without removing it, or -1.
//
//rtdvs:hotpath
func (q *ReadyQueue) Peek() int {
	if len(q.items) == 0 {
		return -1
	}
	return q.items[0].task
}

// PeekKey returns the highest-priority key, or +Inf when empty.
//
//rtdvs:hotpath
func (q *ReadyQueue) PeekKey() float64 {
	if len(q.items) == 0 {
		return math.Inf(1)
	}
	return q.items[0].key
}

// Pop removes and returns the highest-priority task, or -1.
//
//rtdvs:hotpath
func (q *ReadyQueue) Pop() int {
	if len(q.items) == 0 {
		return -1
	}
	ti := q.items[0].task
	q.removeAt(0)
	return ti
}

// removeAt deletes the item at heap position i.
//
//rtdvs:hotpath
func (q *ReadyQueue) removeAt(i int) {
	last := len(q.items) - 1
	q.pos[q.items[i].task] = -1
	if i != last {
		q.items[i] = q.items[last]
		q.pos[q.items[i].task] = i
	}
	q.items = q.items[:last]
	if i < last {
		q.siftDown(i)
		q.siftUp(i)
	}
}

// Remove deletes task ti from the queue (a completion or abort). It
// reports whether the task was present.
//
//rtdvs:hotpath
func (q *ReadyQueue) Remove(ti int) bool {
	if ti < 0 || ti >= len(q.pos) || q.pos[ti] < 0 {
		return false
	}
	q.removeAt(q.pos[ti])
	return true
}

// Update changes task ti's key in place (e.g. a deadline recomputation),
// reporting whether the task was present.
//
//rtdvs:hotpath
func (q *ReadyQueue) Update(ti int, key float64) bool {
	if ti < 0 || ti >= len(q.pos) || q.pos[ti] < 0 {
		return false
	}
	i := q.pos[ti]
	q.items[i].key = key
	q.siftDown(i)
	q.siftUp(i)
	return true
}

// Contains reports whether task ti is queued.
//
//rtdvs:hotpath
func (q *ReadyQueue) Contains(ti int) bool {
	return ti >= 0 && ti < len(q.pos) && q.pos[ti] >= 0
}
