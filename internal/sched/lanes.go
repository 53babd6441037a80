package sched

import (
	"fmt"
	"math"
)

// LaneHeaps is L independent priority queues — one per lane — in a
// single pair of flattened, lane-strided backing slices. Giving every
// lane its own ReadyQueue would scatter L small heaps across the
// allocator, whereas one LaneHeaps keeps all state in two contiguous
// slices indexed by lane, so growing to L lanes is two allocations total
// and resetting touches no allocator at all. No engine uses it; the
// system benchmark's ladder (bench/ladder.go) still times it.
//
// Each lane's queue has exactly ReadyQueue's semantics: float64 keys,
// lower key = higher priority, ties broken by task index, duplicate
// pushes rejected. A lane holds task ids in [0, stride); stride is fixed
// at Reset to the widest task set in the batch.
type LaneHeaps struct {
	lanes  int
	stride int
	// items holds lane l's heap in items[l*stride : l*stride+size[l]].
	items []readyItem
	// size is lane l's current heap length.
	size []int
	// pos maps (lane, task) to heap position: pos[l*stride+ti] is task
	// ti's slot in lane l's heap, -1 when absent.
	pos []int
}

// NewLaneHeaps creates empty lane storage; backing arrays grow on Reset.
func NewLaneHeaps() *LaneHeaps { return &LaneHeaps{} }

// Reset re-shapes the storage to lanes × stride and empties every lane,
// retaining the backing arrays when their capacity suffices — a reused
// LaneHeaps reaches its steady state (no allocation anywhere) after the
// largest batch shape has been seen once.
func (h *LaneHeaps) Reset(lanes, stride int) {
	h.lanes, h.stride = lanes, stride
	n := lanes * stride
	if cap(h.items) < n {
		h.items = make([]readyItem, n)
	} else {
		h.items = h.items[:n]
	}
	if cap(h.pos) < n {
		h.pos = make([]int, n)
	} else {
		h.pos = h.pos[:n]
	}
	for i := range h.pos {
		h.pos[i] = -1
	}
	if cap(h.size) < lanes {
		h.size = make([]int, lanes)
	} else {
		h.size = h.size[:lanes]
	}
	clear(h.size)
}

// Len returns the number of tasks queued in lane l.
//
//rtdvs:hotpath
func (h *LaneHeaps) Len(l int) int { return h.size[l] }

// less orders lane-l heap slots a before b: smaller key first, ties by
// task index — exactly ReadyQueue's comparator, so a LaneHeaps lane and
// a ReadyQueue fed the same operations pop in the same order.
//
//rtdvs:hotpath
func (h *LaneHeaps) less(base, a, b int) bool {
	switch {
	case h.items[base+a].key < h.items[base+b].key:
		return true
	case h.items[base+a].key > h.items[base+b].key:
		return false
	}
	return h.items[base+a].task < h.items[base+b].task
}

//rtdvs:hotpath
func (h *LaneHeaps) swap(base, a, b int) {
	h.items[base+a], h.items[base+b] = h.items[base+b], h.items[base+a]
	h.pos[base+h.items[base+a].task] = a
	h.pos[base+h.items[base+b].task] = b
}

//rtdvs:hotpath
func (h *LaneHeaps) siftUp(base, i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(base, i, parent) {
			break
		}
		h.swap(base, i, parent)
		i = parent
	}
}

//rtdvs:hotpath
func (h *LaneHeaps) siftDown(base, l, i int) {
	n := h.size[l]
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		least := left
		if right := left + 1; right < n && h.less(base, right, left) {
			least = right
		}
		if !h.less(base, least, i) {
			return
		}
		h.swap(base, i, least)
		i = least
	}
}

// Push adds task ti to lane l with the given priority key. A task id
// outside [0, stride) or already queued in the lane is an error.
//
//rtdvs:hotpath
func (h *LaneHeaps) Push(l, ti int, key float64) error {
	if ti < 0 || ti >= h.stride {
		//rtdvs:ignore hotalloc engine-misuse error on a cold path; steady-state pushes never take it
		return fmt.Errorf("sched: task index %d outside lane stride %d", ti, h.stride)
	}
	base := l * h.stride
	if h.pos[base+ti] >= 0 {
		//rtdvs:ignore hotalloc double-release is an engine bug; correct runs never format this error
		return fmt.Errorf("sched: task %d already queued in lane %d", ti, l)
	}
	i := h.size[l]
	h.pos[base+ti] = i
	h.items[base+i] = readyItem{task: ti, key: key}
	h.size[l] = i + 1
	h.siftUp(base, i)
	return nil
}

// Peek returns lane l's highest-priority task without removing it, or -1.
//
//rtdvs:hotpath
func (h *LaneHeaps) Peek(l int) int {
	if h.size[l] == 0 {
		return -1
	}
	return h.items[l*h.stride].task
}

// PeekKey returns lane l's highest-priority key, or +Inf when empty.
//
//rtdvs:hotpath
func (h *LaneHeaps) PeekKey(l int) float64 {
	if h.size[l] == 0 {
		return math.Inf(1)
	}
	return h.items[l*h.stride].key
}

// Pop removes and returns lane l's highest-priority task, or -1.
//
//rtdvs:hotpath
func (h *LaneHeaps) Pop(l int) int {
	if h.size[l] == 0 {
		return -1
	}
	base := l * h.stride
	ti := h.items[base].task
	h.removeAt(base, l, 0)
	return ti
}

// removeAt deletes the item at heap position i of lane l.
//
//rtdvs:hotpath
func (h *LaneHeaps) removeAt(base, l, i int) {
	last := h.size[l] - 1
	h.pos[base+h.items[base+i].task] = -1
	if i != last {
		h.items[base+i] = h.items[base+last]
		h.pos[base+h.items[base+i].task] = i
	}
	h.size[l] = last
	if i < last {
		h.siftDown(base, l, i)
		h.siftUp(base, i)
	}
}

// Remove deletes task ti from lane l, reporting whether it was present.
//
//rtdvs:hotpath
func (h *LaneHeaps) Remove(l, ti int) bool {
	if ti < 0 || ti >= h.stride {
		return false
	}
	base := l * h.stride
	if h.pos[base+ti] < 0 {
		return false
	}
	h.removeAt(base, l, h.pos[base+ti])
	return true
}

// Update changes task ti's key in lane l, reporting whether it was
// present.
//
//rtdvs:hotpath
func (h *LaneHeaps) Update(l, ti int, key float64) bool {
	if ti < 0 || ti >= h.stride {
		return false
	}
	base := l * h.stride
	i := h.pos[base+ti]
	if i < 0 {
		return false
	}
	h.items[base+i].key = key
	h.siftDown(base, l, i)
	h.siftUp(base, i)
	return true
}

// Contains reports whether task ti is queued in lane l.
//
//rtdvs:hotpath
func (h *LaneHeaps) Contains(l, ti int) bool {
	if ti < 0 || ti >= h.stride {
		return false
	}
	return h.pos[l*h.stride+ti] >= 0
}
