package backoff

import (
	"context"
	"testing"
	"time"
)

func TestExpSchedule(t *testing.T) {
	cases := []struct {
		base, max float64
		n         int
		want      float64
	}{
		{50, 2000, 1, 50},
		{50, 2000, 2, 100},
		{50, 2000, 3, 200},
		{50, 2000, 6, 1600},
		{50, 2000, 7, 2000}, // capped
		{50, 2000, 100, 2000},
		{50, 2000, 0, 50}, // attempts below 1 behave as 1
		{50, 2000, -3, 50},
		{3000, 2000, 1, 2000}, // base above max is clamped
	}
	for _, tc := range cases {
		if got := Exp(tc.base, tc.max, tc.n); got != tc.want {
			t.Errorf("Exp(%g, %g, %d) = %g, want %g", tc.base, tc.max, tc.n, got, tc.want)
		}
	}
}

// Seq must reproduce the kernel's historical doubling behavior exactly:
// first failure waits base, each consecutive failure doubles, capped at
// max, and a success resets the episode.
func TestSeqMatchesKernelSchedule(t *testing.T) {
	const base, max = 0.05, 2.0
	var s Seq
	if s.Active() {
		t.Fatal("zero Seq reports active")
	}
	want := []float64{0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 2.0, 2.0}
	for i, w := range want {
		if got := s.Next(base, max); got != w {
			t.Fatalf("failure %d: delay %g, want %g", i+1, got, w)
		}
		if !s.Active() {
			t.Fatalf("failure %d: Seq not active mid-episode", i+1)
		}
	}
	s.Reset()
	if s.Active() {
		t.Fatal("Seq active after Reset")
	}
	if got := s.Next(base, max); got != base {
		t.Fatalf("first delay after Reset = %g, want %g", got, base)
	}
}

// Seq never allocates: it sits inside the kernel, one arithmetic step
// per refused switch.
func TestSeqAllocs(t *testing.T) {
	var s Seq
	allocs := testing.AllocsPerRun(100, func() {
		s.Next(0.05, 2.0)
		s.Reset()
	})
	if allocs != 0 {
		t.Errorf("Seq.Next/Reset allocate %v per run, want 0", allocs)
	}
}

// The same seed must yield the same jittered delay sequence — that is
// what keeps a coordinator's retries reproducible under test.
func TestBackoffDeterministicUnderSeed(t *testing.T) {
	a, b := New(42), New(42)
	for n := 1; n <= 8; n++ {
		da, db := a.Delay(n), b.Delay(n)
		if da != db {
			t.Fatalf("attempt %d: seeds diverge (%v vs %v)", n, da, db)
		}
	}
	c := New(43)
	diverged := false
	for n := 1; n <= 8; n++ {
		if a.Delay(n) != c.Delay(n) {
			diverged = true
		}
	}
	if !diverged {
		t.Error("different seeds produced identical 8-delay sequences")
	}
}

// Jittered delays stay inside [1−jitter, 1.0)·Exp on the fixed
// 50 ms → 2 s schedule.
func TestBackoffBounds(t *testing.T) {
	b := New(7)
	for n := 1; n <= 10; n++ {
		raw := time.Duration(Exp(float64(baseDelay), float64(maxDelay), n))
		d := b.Delay(n)
		if d < raw/2 || d >= raw {
			t.Errorf("attempt %d: delay %v outside [%v, %v)", n, d, raw/2, raw)
		}
	}
}

// The zero-value Backoff is usable: the lazily seeded rng does not
// panic.
func TestBackoffZeroValue(t *testing.T) {
	var b Backoff
	d := b.Delay(1)
	if d < baseDelay/2 || d >= baseDelay {
		t.Errorf("zero-value first delay %v outside [%v, %v)", d, baseDelay/2, baseDelay)
	}
}

// Sleep returns promptly with the context's error when cancelled.
func TestBackoffSleepCancel(t *testing.T) {
	b := New(1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	// The capped delay is at least 1 s, far above the check below.
	if err := b.Sleep(ctx, 100); err != context.Canceled {
		t.Fatalf("Sleep = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Fatalf("cancelled Sleep took %v", elapsed)
	}
	// And completes normally when the delay elapses first.
	if err := b.Sleep(context.Background(), 1); err != nil {
		t.Fatalf("Sleep = %v, want nil", err)
	}
}
