// Package backoff is the repository's one definition of jittered
// exponential backoff. Two layers share the same doubling schedule:
//
//   - Seq, a pure value type over float64 "delay units", used by the
//     RTOS kernel to pace retries of refused operating-point switches
//     in *simulated* milliseconds. It allocates nothing and never
//     touches the wall clock, so it is safe inside the deterministic
//     simulation packages.
//   - Backoff, a seeded wall-clock schedule over time.Duration with
//     uniform jitter, used by the distributed sweep coordinator
//     (internal/fabric) between a worker's consecutive failed shard
//     dispatches. The coordinator is the repository's only wall-clock
//     retry layer; the same seed always yields the same delay
//     sequence.
//
// Both produce the sequence base, 2·base, 4·base, ... capped at max;
// Exp is that shared arithmetic.
package backoff

import (
	"context"
	"math/rand"
	"sync"
	"time"
)

// Exp returns the un-jittered delay before 1-based attempt n: base
// doubled per prior failure, capped at max. Non-positive inputs yield
// base (or max when base exceeds it); attempts below 1 are treated as 1.
func Exp(base, max float64, n int) float64 {
	d := base
	for i := 1; i < n && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	return d
}

// Seq is the stateful form of the schedule for callers that count
// consecutive failures rather than attempts: each Next call returns the
// current delay and doubles the stored one. The zero value is ready to
// use and Reset returns it there. Seq is a plain value — no allocation,
// no clock — so it may live inside simulator state.
type Seq struct {
	cur float64
}

// Active reports whether at least one Next call happened since the last
// Reset — i.e. the caller is inside a retry episode.
func (s *Seq) Active() bool { return s.cur > 0 }

// Next returns the delay to apply after one more consecutive failure
// and advances the schedule: the first call returns base, later calls
// double up to max.
func (s *Seq) Next(base, max float64) float64 {
	if s.cur < base {
		s.cur = base
	}
	d := s.cur
	s.cur *= 2
	if s.cur > max {
		s.cur = max
	}
	return d
}

// Reset ends the retry episode after a success.
func (s *Seq) Reset() { s.cur = 0 }

// The wall-clock schedule: 50 ms doubling to 2 s, each delay scaled by
// a uniform factor in [1−jitter, 1.0) to decorrelate competing workers.
const (
	baseDelay = 50 * time.Millisecond
	maxDelay  = 2 * time.Second
	jitter    = 0.5
)

// Backoff is a seeded wall-clock backoff schedule. Safe for concurrent
// use.
type Backoff struct {
	mu  sync.Mutex
	rng *rand.Rand
}

// New returns a schedule whose jitter stream is driven by seed. Any
// seed is fine; an explicit one keeps test runs reproducible.
func New(seed int64) *Backoff {
	return &Backoff{rng: rand.New(rand.NewSource(seed))}
}

// Delay returns the jittered delay before 1-based attempt n.
func (b *Backoff) Delay(n int) time.Duration {
	b.mu.Lock()
	if b.rng == nil {
		b.rng = rand.New(rand.NewSource(1))
	}
	u := b.rng.Float64()
	b.mu.Unlock()
	d := Exp(float64(baseDelay), float64(maxDelay), n)
	return time.Duration(d * ((1 - jitter) + jitter*u))
}

// Sleep blocks for Delay(n) or until ctx ends, whichever comes first,
// returning ctx's error in the latter case.
func (b *Backoff) Sleep(ctx context.Context, n int) error {
	t := time.NewTimer(b.Delay(n))
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
