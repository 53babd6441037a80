package sim

import (
	"math"
	"slices"

	"rtdvs/internal/fpx"
	"rtdvs/internal/task"
)

// maxReleaseSlots bounds the size of a precomputed release table: one
// hyperperiod may contain at most this many releases before the run
// falls back to the timer heap. The cap keeps table construction
// O(small) and the table itself cache-resident; real frame-based sets
// are far below it.
const maxReleaseSlots = 4096

// relSlot is one entry of the release-table build scratch: a release
// instant within the hyperperiod and the set of tasks (as a bitmask)
// released at it.
type relSlot struct {
	t    float64
	bits uint64
}

// cmpRelSlot orders build-scratch slots by time. Ties may land in any
// order: coincident slots are OR-merged immediately after the sort.
func cmpRelSlot(a, b relSlot) int {
	switch {
	case a.t < b.t:
		return -1
	case a.t > b.t:
		return 1
	}
	return 0
}

// releaseTable replaces the release timer heap for task sets whose
// periods and phases lie on an exact integer grid: periodic releases
// become a cursor walk over one hyperperiod's (time, task-bitmask)
// slots instead of O(log n) heap churn per task per period. Release
// times on an integral grid are exact float64 integers, so the table
// reproduces the heap's times bit for bit (DESIGN §14).
type releaseTable struct {
	slotTime  []float64 // release instants of one hyperperiod, ascending
	slotBits  []uint64  // tasks released at each instant
	hyper     float64
	epochBase float64 // start of the hyperperiod the cursor is in
	cursor    int
	next      float64 // absolute time of the next pending slot

	scratch []relSlot // build scratch, reused across runs
}

// build precomputes one hyperperiod of release instants for ts,
// reporting whether the set qualifies. Qualification is strict so the
// table is bit-exact against the timer heap: every period and phase
// must be an exact float64 integer (the heap path accumulates release
// times by repeated addition, which is exact on the integer grid below
// 2^53 — the same integers the table produces), phases must precede the
// first period so the [0,H) slot pattern repeats verbatim every
// hyperperiod, the task count must fit the 64-bit due-bitmask, and the
// horizon must keep absolute slot times on the exact grid.
func (rt *releaseTable) build(ts *task.Set, horizon float64) bool {
	n := ts.Len()
	if n > 64 {
		return false
	}
	h, ok := ts.Hyperperiod()
	if !ok || !(horizon+2*h < float64(int64(1)<<53)) {
		return false
	}
	total := 0
	for i := 0; i < n; i++ {
		t := ts.Task(i)
		//rtdvs:ignore floatcmp exact integrality is the gate: the release table is only valid on an exact integer grid
		if t.Period != math.Trunc(t.Period) || t.Phase != math.Trunc(t.Phase) ||
			t.Phase < 0 || t.Phase >= t.Period {
			return false
		}
		total += int(h / t.Period)
	}
	if total > maxReleaseSlots {
		return false
	}

	rt.scratch = rt.scratch[:0]
	for i := 0; i < n; i++ {
		t := ts.Task(i)
		bit := uint64(1) << uint(i)
		for at := t.Phase; at < h; at += t.Period {
			rt.scratch = append(rt.scratch, relSlot{t: at, bits: bit})
		}
	}
	slices.SortFunc(rt.scratch, cmpRelSlot)
	rt.slotTime, rt.slotBits = rt.slotTime[:0], rt.slotBits[:0]
	for _, s := range rt.scratch {
		//rtdvs:ignore floatcmp slot times sit on the exact integer grid the table gate enforces; coincident means bit-equal
		if last := len(rt.slotTime) - 1; last >= 0 && rt.slotTime[last] == s.t {
			rt.slotBits[last] |= s.bits
		} else {
			rt.slotTime = append(rt.slotTime, s.t)
			rt.slotBits = append(rt.slotBits, s.bits)
		}
	}
	rt.hyper = h
	rt.epochBase = 0
	rt.cursor = 0
	rt.next = rt.slotTime[0]
	return true
}

// drain consumes every slot at or before now and returns the union of
// their task bitmasks. Replaying the due tasks in ascending bit order is
// the same event order the heap drain plus index sort produces.
//
//rtdvs:hotpath
func (rt *releaseTable) drain(now float64) uint64 {
	due := uint64(0)
	for fpx.Le(rt.next, now) {
		due |= rt.slotBits[rt.cursor]
		rt.cursor++
		if rt.cursor == len(rt.slotTime) {
			rt.cursor = 0
			rt.epochBase += rt.hyper
		}
		rt.next = rt.epochBase + rt.slotTime[rt.cursor]
	}
	return due
}

// frameSet reports whether every task of ts shares one period and one
// phase — a single frame. All simultaneously active jobs of such a set
// carry the same ready key (equal deadlines under EDF, equal periods
// under RM), so the run queue's key-then-index order degenerates to
// plain task-index order and a bitmask reproduces it exactly.
func frameSet(ts *task.Set) bool {
	t0 := ts.Task(0)
	for i := 1; i < ts.Len(); i++ {
		t := ts.Task(i)
		//rtdvs:ignore floatcmp exact equality is the gate: the frame fast path requires identical periods and phases, not nearly equal ones
		if t.Period != t0.Period || t.Phase != t0.Phase {
			return false
		}
	}
	return true
}
