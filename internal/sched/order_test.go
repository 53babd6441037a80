package sched

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// refOrder is the reference an Order is checked against: each task's key,
// period and ready flag, from which the expected state is sorted afresh.
type refOrder struct {
	kind    Kind
	keys    []float64
	periods []float64
	ready   []bool
}

func newRef(kind Kind, keys, periods []float64) *refOrder {
	return &refOrder{kind: kind, keys: append([]float64(nil), keys...),
		periods: append([]float64(nil), periods...), ready: make([]bool, len(keys))}
}

// reset rebuilds o from the reference, ready bits included, as the
// kernel rebuilds its order when a key moves earlier.
func (r *refOrder) reset(o *Order) {
	o.Reset(r.kind, len(r.keys), func(i int) (float64, float64) { return r.keys[i], r.periods[i] })
	for i, ok := range r.ready {
		if ok {
			o.Add(i)
		}
	}
}

// sorted returns the task indexes sorted by (by[i], i).
func sorted(by []float64) []int {
	idx := make([]int, len(by))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return Before(by[idx[a]], idx[a], by[idx[b]], idx[b]) })
	return idx
}

// check compares o with the reference: the order, its keys and the
// positions, the head, the ready set bit for bit over the priority
// order, and the pick and the top picks.
func (r *refOrder) check(o *Order) error {
	n := len(r.keys)
	want := sorted(r.keys)
	order, keys := o.Tasks()
	if len(order) != n || len(keys) != n {
		return fmt.Errorf("order of %d tasks, want %d", len(order), n)
	}
	for p, i := range want {
		if order[p] != i || math.Float64bits(keys[p]) != math.Float64bits(r.keys[i]) {
			return fmt.Errorf("position %d holds task %d key %v, want task %d key %v", p, order[p], keys[p], i, r.keys[i])
		}
		if o.pos[i] != p {
			return fmt.Errorf("task %d recorded at position %d, want %d", i, o.pos[i], p)
		}
	}
	head := math.Inf(1)
	if n > 0 {
		head = r.keys[want[0]]
	}
	if math.Float64bits(o.Head()) != math.Float64bits(head) {
		return fmt.Errorf("head %v, want %v", o.Head(), head)
	}
	prio := want
	if r.kind == RM {
		prio = sorted(r.periods)
	}
	words := o.ready
	if len(words) != (n+63)/64 {
		return fmt.Errorf("%d ready words for %d tasks", len(words), n)
	}
	var picks []int
	for k := 0; k < len(words)*64; k++ {
		bit := words[k>>6]>>(k&63)&1 == 1
		ready := k < n && r.ready[prio[k]]
		if bit != ready {
			return fmt.Errorf("ready bit %d is %v, want %v", k, bit, ready)
		}
		if ready {
			picks = append(picks, prio[k])
		}
	}
	for i, ok := range r.ready {
		k := o.rank[i]
		if bit := words[k>>6]>>(k&63)&1 == 1; bit != ok {
			return fmt.Errorf("task %d ready %v, want %v", i, bit, ok)
		}
	}
	pick := -1
	if len(picks) > 0 {
		pick = picks[0]
	}
	if got := o.Peek(); got != pick {
		return fmt.Errorf("pick %d, want %d", got, pick)
	}
	for _, m := range []int{1, 2, 3, 70} {
		top := o.Top(m, nil)
		wantTop := picks[:min(m, len(picks))]
		if fmt.Sprint(top) != fmt.Sprint(wantTop) {
			return fmt.Errorf("top %d picks %v, want %v", m, top, wantTop)
		}
	}
	return nil
}

// fire runs one release instant on o and the reference: the due prefix
// at now, checked against the reference's due tasks in index order, each
// given its later key later(i), then settled.
func (r *refOrder) fire(o *Order, now float64, later func(i int) float64) error {
	var want []int
	for i, k := range r.keys {
		if k <= now+1e-9 {
			want = append(want, i)
		}
	}
	due := o.Due(now)
	if fmt.Sprint(due) != fmt.Sprint(want) {
		return fmt.Errorf("due at %v: %v, want %v", now, due, want)
	}
	for _, i := range due {
		r.keys[i] = later(i)
		o.SetKey(i, r.keys[i])
	}
	o.Settle()
	return nil
}

// opsOrder drives an order through n tasks' worth of random
// operations, reading its choices from next, and checks it against the
// reference after each: release instants, single tasks moving later,
// ready bits set and cleared, and keys moving earlier, which rebuild.
func opsOrder(kind Kind, n int, ops int, next func(int) int) error {
	keys := make([]float64, n)
	periods := make([]float64, n)
	for i := range keys {
		periods[i] = float64(1 + next(6)) // few distinct periods: many ties
		keys[i] = float64(next(4))
	}
	r := newRef(kind, keys, periods)
	var o Order
	r.reset(&o)
	if err := r.check(&o); err != nil {
		return fmt.Errorf("after reset: %w", err)
	}
	for op := 0; op < ops; op++ {
		var what string
		switch next(6) {
		case 0, 1: // a release instant at the head
			what = "release"
			now := o.Head()
			if err := r.fire(&o, now, func(i int) float64 { return r.keys[i] + r.periods[i] }); err != nil {
				return fmt.Errorf("op %d: %w", op, err)
			}
		case 2: // one task moves later, possibly to +Inf
			what = "later"
			i := next(n)
			key := r.keys[i] + float64(next(3))
			if next(4) == 0 {
				key = math.Inf(1)
			}
			r.keys[i] = key
			o.Later(i, key)
		case 3: // a task becomes ready
			what = "add"
			i := next(n)
			r.ready[i] = true
			o.Add(i)
		case 4: // a task stops being ready
			what = "remove"
			i := next(n)
			r.ready[i] = false
			o.Remove(i)
		case 5: // a key moves earlier: the order is rebuilt
			what = "earlier"
			i := next(n)
			if !math.IsInf(r.keys[i], 1) {
				r.keys[i] -= float64(next(3))
			} else {
				r.keys[i] = o.Head()
			}
			r.reset(&o)
		}
		if err := r.check(&o); err != nil {
			return fmt.Errorf("op %d (%s): %w", op, what, err)
		}
	}
	return nil
}

// TestOrderMatchesSortedReference runs seeded operation sequences on
// orders of 1 to 200 tasks, under EDF and RM, whose ready sets take one
// to four words, against a reference sorted afresh after every step.
func TestOrderMatchesSortedReference(t *testing.T) {
	for _, kind := range []Kind{EDF, RM} {
		for _, n := range []int{1, 2, 5, 63, 64, 65, 130, 200} {
			for seed := int64(1); seed <= 3; seed++ {
				r := rand.New(rand.NewSource(seed*1000 + int64(n)))
				if err := opsOrder(kind, n, 300, r.Intn); err != nil {
					t.Errorf("%v n=%d seed %d: %v", kind, n, seed, err)
				}
			}
		}
	}
}

// Under EDF the order is the priority order, so a task that moves back
// carries its ready bit across words, and the bits it passes shift down
// one place: 130 ready tasks sharing a key, the first moved to the end.
func TestOrderMoveCarriesReadyBitsAcrossWords(t *testing.T) {
	const n = 130
	keys, periods := make([]float64, n), make([]float64, n)
	for i := range keys {
		keys[i], periods[i] = 5, 10
	}
	r := newRef(EDF, keys, periods)
	for i := range r.ready {
		r.ready[i] = i%3 != 1
	}
	var o Order
	r.reset(&o)
	r.keys[0] = 6
	o.Later(0, 6)
	if err := r.check(&o); err != nil {
		t.Fatal(err)
	}
	if got := o.pos[0]; got != n-1 {
		t.Fatalf("task 0 at position %d, want %d", got, n-1)
	}
	// A single frame: every task due at once keeps its place and takes
	// its new key.
	if err := r.fire(&o, 6, func(i int) float64 { return r.keys[i] + 10 }); err != nil {
		t.Fatal(err)
	}
	if err := r.check(&o); err != nil {
		t.Fatal(err)
	}
}

// The due prefix comes back in task index order even when the order
// holds it otherwise, and later keys settle into place.
func TestOrderDueInIndexOrder(t *testing.T) {
	r := newRef(EDF, []float64{3, 1, 2, 9}, []float64{4, 8, 5, 9})
	var o Order
	r.reset(&o)
	if order, _ := o.Tasks(); fmt.Sprint(order) != "[1 2 0 3]" {
		t.Fatalf("order %v, want [1 2 0 3]", order)
	}
	if err := r.fire(&o, 3, func(i int) float64 { return r.keys[i] + r.periods[i] }); err != nil {
		t.Fatal(err)
	}
	if err := r.check(&o); err != nil {
		t.Fatal(err)
	}
	if order, keys := o.Tasks(); fmt.Sprint(order, keys) != "[0 2 1 3] [7 7 9 9]" {
		t.Errorf("settled order %v %v, want [0 2 1 3] [7 7 9 9]", order, keys)
	}
}

// An empty order has no head and no pick.
func TestOrderEmpty(t *testing.T) {
	var o Order
	if !math.IsInf(o.Head(), 1) || o.Peek() != -1 || len(o.ready) != 0 || len(o.Top(2, nil)) != 0 {
		t.Error("empty order misbehaves")
	}
	o.Reset(RM, 0, nil)
	if !math.IsInf(o.Head(), 1) || o.Peek() != -1 || len(o.Due(0)) != 0 {
		t.Error("order reset to no tasks misbehaves")
	}
}

// Before is a strict total order: smaller key first, ties to the lower
// index, and never both ways.
func TestBefore(t *testing.T) {
	for _, c := range []struct {
		ka   float64
		a    int
		kb   float64
		b    int
		want bool
	}{
		{1, 5, 2, 0, true}, {2, 0, 1, 5, false}, {3, 1, 3, 2, true}, {3, 2, 3, 1, false},
		{3, 1, 3, 1, false}, {math.Inf(1), 0, math.Inf(1), 1, true},
	} {
		if got := Before(c.ka, c.a, c.kb, c.b); got != c.want {
			t.Errorf("Before(%v, %d, %v, %d) = %v, want %v", c.ka, c.a, c.kb, c.b, got, c.want)
		}
	}
}

// FuzzOrder programs an order from the input bytes: the discipline, the
// task count (up to 200, so the ready set spans up to four words), and
// an operation sequence, each checked against the sorted reference.
func FuzzOrder(f *testing.F) {
	f.Add([]byte{0, 3, 1, 2, 3, 4, 5, 0, 1, 2})
	f.Add([]byte{1, 64, 5, 5, 0, 0, 3, 3, 2, 2, 4, 1})
	f.Add([]byte{0, 130, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 5, 5, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		pos := 0
		next := func(n int) int {
			if pos >= len(data) {
				return 0
			}
			b := int(data[pos])
			pos++
			return b % n
		}
		kind := Kind(next(2))
		n := 1 + next(200)
		if err := opsOrder(kind, n, len(data), next); err != nil {
			t.Fatal(err)
		}
	})
}
