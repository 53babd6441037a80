package sched

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestReadyQueueBasics(t *testing.T) {
	q := NewReadyQueue()
	if q.Pop() != -1 || q.Peek() != -1 || q.Len() != 0 {
		t.Fatal("empty queue misbehaves")
	}
	for ti, key := range map[int]float64{0: 10, 1: 5, 2: 20} {
		if err := q.Push(ti, key); err != nil {
			t.Fatal(err)
		}
	}
	if q.Len() != 3 {
		t.Fatalf("Len = %d", q.Len())
	}
	if q.Peek() != 1 || q.PeekKey() != 5 {
		t.Errorf("Peek = %d/%v, want 1/5", q.Peek(), q.PeekKey())
	}
	if got := q.Pop(); got != 1 {
		t.Errorf("Pop = %d, want 1", got)
	}
	if got := q.Pop(); got != 0 {
		t.Errorf("Pop = %d, want 0", got)
	}
	if got := q.Pop(); got != 2 {
		t.Errorf("Pop = %d, want 2", got)
	}
}

func TestReadyQueueDoublePush(t *testing.T) {
	q := NewReadyQueue()
	if err := q.Push(3, 1); err != nil {
		t.Fatal(err)
	}
	if err := q.Push(3, 2); err == nil {
		t.Error("double push accepted")
	}
}

func TestReadyQueueTieBreaksByIndex(t *testing.T) {
	q := NewReadyQueue()
	for _, ti := range []int{5, 2, 9} {
		if err := q.Push(ti, 7); err != nil {
			t.Fatal(err)
		}
	}
	if got := q.Pop(); got != 2 {
		t.Errorf("tie pop = %d, want lowest index 2", got)
	}
}

func TestReadyQueueRemoveAndUpdate(t *testing.T) {
	q := NewReadyQueue()
	for ti := 0; ti < 5; ti++ {
		if err := q.Push(ti, float64(10-ti)); err != nil {
			t.Fatal(err)
		}
	}
	if !q.Contains(2) || q.Contains(9) {
		t.Error("Contains wrong")
	}
	if !q.Remove(4) || q.Remove(4) {
		t.Error("Remove semantics wrong")
	}
	if !q.Update(0, 0.5) {
		t.Error("Update failed")
	}
	if q.Update(42, 1) {
		t.Error("Update of absent task succeeded")
	}
	if got := q.Pop(); got != 0 {
		t.Errorf("after update, Pop = %d, want 0", got)
	}
}

// The queue must agree with sorting for arbitrary workloads, across
// interleaved pushes, removals, and updates.
func TestReadyQueueMatchesSortProperty(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 50; trial++ {
		q := NewReadyQueue()
		keys := map[int]float64{}
		next := 0
		for op := 0; op < 200; op++ {
			switch r.Intn(4) {
			case 0, 1:
				keys[next] = r.Float64() * 100
				if err := q.Push(next, keys[next]); err != nil {
					t.Fatal(err)
				}
				next++
			case 2:
				for ti := range keys {
					q.Remove(ti)
					delete(keys, ti)
					break
				}
			case 3:
				for ti := range keys {
					keys[ti] = r.Float64() * 100
					q.Update(ti, keys[ti])
					break
				}
			}
		}
		// Drain and compare against a sorted reference.
		type kv struct {
			ti  int
			key float64
		}
		ref := make([]kv, 0, len(keys))
		for ti, k := range keys {
			ref = append(ref, kv{ti, k})
		}
		sort.Slice(ref, func(a, b int) bool {
			if ref[a].key != ref[b].key {
				return ref[a].key < ref[b].key
			}
			return ref[a].ti < ref[b].ti
		})
		for i, want := range ref {
			if got := q.Pop(); got != want.ti {
				t.Fatalf("trial %d: drain position %d = task %d, want %d", trial, i, got, want.ti)
			}
		}
		if q.Pop() != -1 {
			t.Fatal("queue not drained")
		}
	}
}

// Drain-then-reuse: after a full drain and Reset, the queue must behave
// identically to a fresh one and must not allocate while doing so.
func TestReadyQueueDrainThenReuse(t *testing.T) {
	q := NewReadyQueue()
	r := rand.New(rand.NewSource(41))
	const n = 64
	drain := func(pass int) {
		for i := 0; i < n; i++ {
			if err := q.Push(i, r.Float64()*100); err != nil {
				t.Fatalf("pass %d: %v", pass, err)
			}
		}
		prev := q.PeekKey()
		for q.Len() > 0 {
			k := q.PeekKey()
			if k < prev {
				t.Fatalf("pass %d: keys popped out of order: %v after %v", pass, k, prev)
			}
			prev = k
			q.Pop()
		}
		if q.Pop() != -1 || q.Peek() != -1 {
			t.Fatalf("pass %d: drained queue not empty", pass)
		}
	}
	drain(0)
	q.Reset(n)
	if q.Len() != 0 {
		t.Fatal("Reset left items behind")
	}
	for i := 0; i < n; i++ {
		if q.Contains(i) {
			t.Fatalf("Reset left task %d marked queued", i)
		}
	}
	// Once warmed to n tasks, a full push/drain cycle on a Reset queue
	// must not allocate — the property the simulator Runner relies on.
	allocs := testing.AllocsPerRun(10, func() {
		q.Reset(n)
		for i := 0; i < n; i++ {
			if err := q.Push(i, float64((i*7919)%101)); err != nil {
				t.Fatal(err)
			}
		}
		for q.Len() > 0 {
			q.Pop()
		}
	})
	if allocs != 0 {
		t.Errorf("push/drain cycle after Reset allocates %.1f times", allocs)
	}
	drain(1)
}

// Reset after a partial drain must clear stranded membership state.
func TestReadyQueueResetMidstream(t *testing.T) {
	q := NewReadyQueue()
	for i := 0; i < 8; i++ {
		if err := q.Push(i, float64(8-i)); err != nil {
			t.Fatal(err)
		}
	}
	q.Pop()
	q.Pop()
	q.Reset(8)
	if q.Len() != 0 || q.Peek() != -1 {
		t.Fatal("Reset did not empty the queue")
	}
	// Every task must be pushable again (no stale pos entries).
	for i := 0; i < 8; i++ {
		if err := q.Push(i, 1); err != nil {
			t.Fatalf("re-push of task %d after Reset: %v", i, err)
		}
	}
}

// Large-N heap property: with thousands of tasks and churn, every pop
// must yield the global minimum and internal position bookkeeping must
// stay consistent.
func TestReadyQueueLargeNHeapProperty(t *testing.T) {
	const n = 5000
	q := NewReadyQueue()
	r := rand.New(rand.NewSource(97))
	keys := make([]float64, n)
	for i := 0; i < n; i++ {
		keys[i] = r.Float64() * 1e6
		if err := q.Push(i, keys[i]); err != nil {
			t.Fatal(err)
		}
	}
	// Churn: update a third, remove a sixth.
	present := make([]bool, n)
	for i := range present {
		present[i] = true
	}
	for i := 0; i < n/3; i++ {
		ti := r.Intn(n)
		if present[ti] {
			keys[ti] = r.Float64() * 1e6
			if !q.Update(ti, keys[ti]) {
				t.Fatalf("Update(%d) failed", ti)
			}
		}
	}
	for i := 0; i < n/6; i++ {
		ti := r.Intn(n)
		if present[ti] {
			if !q.Remove(ti) {
				t.Fatalf("Remove(%d) failed", ti)
			}
			present[ti] = false
		}
	}
	// Internal consistency: pos and items must agree.
	for ti, p := range q.pos {
		if p >= 0 && q.items[p].task != ti {
			t.Fatalf("pos[%d]=%d but items[%d].task=%d", ti, p, p, q.items[p].task)
		}
	}
	// Drain: verify heap property via nondecreasing keys with index
	// tie-break, and exact membership.
	var got []int
	prevKey, prevTask := -1.0, -1
	for q.Len() > 0 {
		k := q.PeekKey()
		ti := q.Pop()
		switch {
		case k < prevKey:
			t.Fatalf("key %v popped after %v", k, prevKey)
		case k > prevKey:
		default:
			if ti < prevTask {
				t.Fatalf("tie on key %v broken out of index order: %d after %d", k, ti, prevTask)
			}
		}
		if keys[ti] != k {
			t.Fatalf("task %d popped with key %v, want %v", ti, k, keys[ti])
		}
		prevKey, prevTask = k, ti
		got = append(got, ti)
	}
	want := 0
	for _, p := range present {
		if p {
			want++
		}
	}
	if len(got) != want {
		t.Fatalf("drained %d tasks, want %d", len(got), want)
	}
	seen := make([]bool, n)
	for _, ti := range got {
		if !present[ti] || seen[ti] {
			t.Fatalf("task %d popped unexpectedly", ti)
		}
		seen[ti] = true
	}
}

// linearPick is the oracle for the queue-driven pick: the ready index
// with the lowest key, ties to the lower index, or -1 when none is ready.
func linearPick(keys []float64, ready []bool) int {
	best, bestKey := -1, math.Inf(1)
	for i, k := range keys {
		if ready[i] && k < bestKey {
			best, bestKey = i, k
		}
	}
	return best
}

// The queue-driven pick must agree with a linear scan for both
// disciplines on random ready sets.
func TestReadyQueueAgreesWithLinearPick(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for trial := 0; trial < 100; trial++ {
		n := 1 + r.Intn(12)
		periods, deadlines, ready := make([]float64, n), make([]float64, n), make([]bool, n)
		edfQ, rmQ := NewReadyQueue(), NewReadyQueue()
		for i := 0; i < n; i++ {
			periods[i] = 1 + r.Float64()*100
			deadlines[i] = r.Float64() * 100
			if r.Intn(2) == 0 {
				ready[i] = true
				if err := edfQ.Push(i, deadlines[i]); err != nil {
					t.Fatal(err)
				}
				if err := rmQ.Push(i, periods[i]); err != nil {
					t.Fatal(err)
				}
			}
		}
		if got, want := edfQ.Peek(), linearPick(deadlines, ready); got != want {
			t.Fatalf("trial %d: EDF queue %d vs scan %d", trial, got, want)
		}
		if got, want := rmQ.Peek(), linearPick(periods, ready); got != want {
			t.Fatalf("trial %d: RM queue %d vs scan %d", trial, got, want)
		}
	}
}
