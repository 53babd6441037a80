package sched

import (
	"math"
	"math/bits"
	"slices"

	"rtdvs/internal/fpx"
)

// Order is the release order and run queue of one task set, shared by
// the simulator's scalar and global loops and the rtos kernel. Every
// task sits in one order by (key, index), where its key is the instant
// of its next event: the simulator keys a task by its deadline, which is
// also its next release; the kernel by its deadline while an invocation
// is active and by its next release otherwise. So the order is the
// release timer, its head the next event, and under EDF, where the
// ready tasks' keys are their deadlines, also the run queue.
//
// The ready set is a bitset in uint64 words over a priority order, one
// bit per position: the order itself under EDF, the static (period,
// index) order under RM. A pick is the lowest set bit. Keys only move
// later between rebuilds: a release instant fires the due prefix (Due)
// and moves the fired tasks back (Settle), and a single task moves back
// with Later. Under EDF a moved task carries its ready bit along. A key
// that moves earlier (a sporadic trigger) takes a Reset.
//
// The zero value is an empty order; Reset sizes it. Its buffers are
// reused across Resets, so a steady state allocates nothing.
type Order struct {
	// ord holds the tasks in (key, index) order, key their keys position
	// by position, and pos each task's position. Under RM, static,
	// statKey and statPos hold the (period, index) order alike.
	ord, pos        []int
	key             []float64
	static, statPos []int
	statKey         []float64
	// prio and rank are the priority order the ready set's bits follow
	// and its inverse: ord and pos under EDF, static and statPos under
	// RM, where rm is set.
	prio, rank []int
	rm         bool
	ready      []uint64
	// due is Due's scratch copy of an unsorted prefix, and ndue the
	// length of the prefix Settle moves back.
	due  []int
	ndue int
}

// Before is the (key, index) order: smaller key first, ties to the lower
// task index. It compares exactly, with two strict comparisons, so it is
// a strict total order and the sorted permutation of any keys is unique.
//
//rtdvs:hotpath
func Before(ka float64, a int, kb float64, b int) bool {
	switch {
	case ka < kb:
		return true
	case ka > kb:
		return false
	}
	return a < b
}

// Reset rebuilds the order for n tasks under discipline kind, with an
// empty ready set: at(i) returns task i's key and its period, which sets
// its static priority under RM.
func (o *Order) Reset(kind Kind, n int, at func(i int) (key, period float64)) {
	o.ord, o.key, o.pos = GrowZeroed(o.ord, n), GrowZeroed(o.key, n), GrowZeroed(o.pos, n)
	o.ready = GrowZeroed(o.ready, (n+63)>>6)
	o.ndue, o.rm = 0, kind == RM
	if o.rm {
		o.static, o.statKey, o.statPos = GrowZeroed(o.static, n), GrowZeroed(o.statKey, n), GrowZeroed(o.statPos, n)
	}
	for i := range n {
		key, period := at(i)
		o.ord[i], o.key[i] = i, key
		if o.rm {
			o.static[i], o.statKey[i] = i, period
		}
	}
	sortOrder(o.ord, o.key, o.pos)
	if !o.rm {
		o.prio, o.rank = o.ord, o.pos
		return
	}
	sortOrder(o.static, o.statKey, o.statPos)
	o.prio, o.rank = o.static, o.statPos
}

// sortOrder insertion-sorts the permutation ord, with its parallel keys,
// into (key, index) order and fills pos with its inverse.
func sortOrder(ord []int, key []float64, pos []int) {
	for k := 1; k < len(ord); k++ {
		i, ki := ord[k], key[k]
		j := k
		for j > 0 && Before(ki, i, key[j-1], ord[j-1]) {
			ord[j], key[j] = ord[j-1], key[j-1]
			j--
		}
		ord[j], key[j] = i, ki
	}
	for k, i := range ord {
		pos[i] = k
	}
}

// Head returns the earliest key, the instant of the next event, or +Inf
// when the order is empty.
//
//rtdvs:hotpath
func (o *Order) Head() float64 {
	if len(o.key) == 0 {
		return math.Inf(1)
	}
	return o.key[0]
}

// Tasks returns the tasks in (key, index) order and their keys,
// position by position. The slices alias the order: they are valid until
// its next change, and a write to them corrupts it (the simulator's
// invariant tests seed faults that way; callers must not).
//
//rtdvs:hotpath
func (o *Order) Tasks() (order []int, keys []float64) { return o.ord, o.key }

// Due returns the due prefix: the tasks whose keys pass fpx.Le(key, now),
// in ascending task index order. The comparison is monotone in the key,
// so the prefix holds every due task. Tasks due at one instant usually
// share a key, so the prefix is already in index order and is returned
// in place; otherwise a sorted copy is. The caller fires each task,
// gives it its new key with SetKey, which must not be earlier than the
// old one, and then calls Settle. The slice is valid until then.
//
//rtdvs:hotpath
func (o *Order) Due(now float64) []int {
	k, ascending := 0, true
	for k < len(o.ord) && fpx.Le(o.key[k], now) {
		if k > 0 && o.ord[k] < o.ord[k-1] {
			ascending = false
		}
		k++
	}
	o.ndue = k
	due := o.ord[:k]
	if !ascending {
		o.due = o.due[:0]
		o.due = append(o.due, due...)
		slices.Sort(o.due)
		due = o.due
	}
	return due
}

// SetKey gives task i of the due prefix its new key. The order is out of
// place until Settle.
//
//rtdvs:hotpath
func (o *Order) SetKey(i int, key float64) { o.key[o.pos[i]] = key }

// Settle moves the tasks of the last due prefix back to their places,
// last position first, so each passes only tasks already in place: a
// single frame, whose n tasks all fire at once, costs n steps where
// moving each task as it fires would cost n². A task whose new key still
// comes before its successor's keeps its place.
//
//rtdvs:hotpath
func (o *Order) Settle() {
	ord, keys := o.ord, o.key[:len(o.ord)]
	for p := o.ndue - 1; p >= 0; p-- {
		i, key := ord[p], keys[p]
		if p+1 < len(ord) && Before(keys[p+1], ord[p+1], key, i) {
			o.move(i, key)
		}
	}
	o.ndue = 0
}

// Later gives task i a key no earlier than its current one and moves it
// back to its place.
//
//rtdvs:hotpath
func (o *Order) Later(i int, key float64) {
	p := o.pos[i]
	o.key[p] = key
	if p+1 < len(o.ord) && Before(o.key[p+1], o.ord[p+1], key, i) {
		o.move(i, key)
	}
}

// move moves task i, whose key has moved later, back to its place by one
// insertion. Under EDF the order is also the priority order: the moved
// task carries its ready bit from position p to q, and the bits of the
// tasks it passes, p+1..q, shift down one place, word by word. Each
// word's span of positions within p..q takes the bits above it shifted
// down, and its top position takes the next word's lowest bit, or the
// moved bit in q's word. A move within one word, every move of a set of
// up to 64 tasks, is that word's step alone.
//
//rtdvs:hotpath
func (o *Order) move(i int, key float64) {
	ord, keys, pos := o.ord, o.key[:len(o.ord)], o.pos
	p := pos[i]
	q := p
	for q+1 < len(ord) {
		next, nk := ord[q+1], keys[q+1]
		if !Before(nk, next, key, i) {
			break
		}
		ord[q], keys[q], pos[next] = next, nk, q
		q++
	}
	ord[q], keys[q], pos[i] = i, key, q
	if o.rm || q == p {
		return
	}
	rb := o.ready
	if w := p >> 6; w == q>>6 {
		lo, hi := uint(p&63), uint(q&63)
		span := (uint64(1)<<hi<<1 - 1) &^ (uint64(1)<<lo - 1)
		b := rb[w]
		rb[w] = b&^span | (b&span&^(1<<lo))>>1 | (b>>lo&1)<<hi
		return
	}
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

// Add marks task i ready.
//
//rtdvs:hotpath
func (o *Order) Add(i int) {
	k := o.rank[i]
	o.ready[k>>6] |= 1 << uint(k&63)
}

// Remove marks task i not ready.
//
//rtdvs:hotpath
func (o *Order) Remove(i int) {
	k := o.rank[i]
	o.ready[k>>6] &^= 1 << uint(k&63)
}

// Peek returns the ready task of highest priority, or -1 when none is
// ready: the task at the lowest set bit of the priority order.
//
//rtdvs:hotpath
func (o *Order) Peek() int {
	for w, b := range o.ready {
		if b != 0 {
			return o.prio[w<<6|bits.TrailingZeros64(b)]
		}
	}
	return -1
}

// Top appends to out the (up to) m ready tasks of highest priority, in
// priority order, and returns it.
//
//rtdvs:hotpath
func (o *Order) Top(m int, out []int) []int {
	for w, b := range o.ready {
		for ; b != 0; b &= b - 1 {
			if len(out) == m {
				return out
			}
			out = append(out, o.prio[w<<6|bits.TrailingZeros64(b)])
		}
	}
	return out
}
