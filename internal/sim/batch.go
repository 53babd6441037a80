package sim

import (
	"context"
	"fmt"

	"rtdvs/internal/core"
	"rtdvs/internal/sched"
)

// BatchRunner executes a batch of independent configurations: Run
// executes configuration l on its own retained Runner, and RunMulti
// executes item i on its own retained MultiRunner, so every result is
// exactly what a standalone run of the same configuration returns. Each
// Runner keeps its own release order and ready set (a sched.Order), so a
// batch needs no engine of its own.
//
// Like Runner, a BatchRunner reuses every internal buffer, so
// steady-state batches perform no allocation; the returned Results alias
// those buffers and are valid until the next call. Not safe for
// concurrent use. Each configuration must bring its OWN Policy instance
// (shared instances are rejected) and, when the exec model is stateful,
// its own ExecModel.
type BatchRunner struct {
	runners []*Runner
	results []*Result
	errs    []error
	seen    map[core.Policy]int // duplicate policy-instance detection

	multis   []*MultiRunner
	mresults []*MultiResult
	merrs    []error
}

// NewBatchRunner returns an empty BatchRunner; buffers grow on first use.
func NewBatchRunner() *BatchRunner { return &BatchRunner{} }

// RunBatch executes the configurations on a fresh BatchRunner (see
// BatchRunner.Run).
func RunBatch(cfgs []Config) ([]*Result, []error) {
	return NewBatchRunner().Run(cfgs)
}

// Run executes every configuration and returns parallel slices of
// per-configuration results and errors: results[i] is non-nil exactly
// when errs[i] is nil. The results (and the slices themselves) alias the
// BatchRunner's buffers and are valid until the next Run call; use
// Result.Clone to retain one.
func (b *BatchRunner) Run(cfgs []Config) ([]*Result, []error) {
	return b.run(nil, cfgs)
}

// RunContext is Run with cooperative cancellation: every configuration
// still unfinished when the context ends reports a *Canceled error
// carrying its partial result, exactly like Runner.RunContext.
func (b *BatchRunner) RunContext(ctx context.Context, cfgs []Config) ([]*Result, []error) {
	if ctx != nil && ctx.Done() == nil {
		ctx = nil
	}
	return b.run(ctx, cfgs)
}

// run validates each configuration the way Runner.run does, rejects a
// Policy instance an earlier valid configuration already brought, and
// executes the rest one after another.
func (b *BatchRunner) run(ctx context.Context, cfgs []Config) ([]*Result, []error) {
	k := len(cfgs)
	b.results = sched.GrowZeroed(b.results, k)
	b.errs = sched.GrowZeroed(b.errs, k)
	for i := len(b.runners); i < k; i++ {
		b.runners = append(b.runners, NewRunner())
	}
	if b.seen == nil {
		b.seen = make(map[core.Policy]int, k)
	} else {
		clear(b.seen)
	}
	for l, cfg := range cfgs {
		if err := validate(&cfg); err != nil {
			b.errs[l] = err
			continue
		}
		if prev, dup := b.seen[cfg.Policy]; dup {
			b.errs[l] = fmt.Errorf("sim: batch lanes %d and %d share a Policy instance; every lane needs its own", prev, l)
			continue
		}
		b.seen[cfg.Policy] = l
		b.results[l], b.errs[l] = b.runners[l].exec(ctx, cfg)
	}
	return b.results, b.errs
}

// RunMulti executes every multi-core configuration and returns parallel
// slices of per-item results and errors: results[i] is non-nil exactly
// when errs[i] is nil. The results alias the BatchRunner's buffers and
// are valid until the next RunMulti call; use MultiResult.Clone to
// retain one. The configurations themselves are left untouched.
func (b *BatchRunner) RunMulti(cfgs []MultiConfig) ([]*MultiResult, []error) {
	return b.runMulti(nil, cfgs)
}

// RunMultiContext is RunMulti with cooperative cancellation: items
// interrupted before their horizon report a *MultiCanceled carrying the
// partial result, like MultiRunner.RunContext.
func (b *BatchRunner) RunMultiContext(ctx context.Context, cfgs []MultiConfig) ([]*MultiResult, []error) {
	if ctx != nil && ctx.Done() == nil {
		ctx = nil
	}
	return b.runMulti(ctx, cfgs)
}

func (b *BatchRunner) runMulti(ctx context.Context, cfgs []MultiConfig) ([]*MultiResult, []error) {
	k := len(cfgs)
	b.mresults = sched.GrowZeroed(b.mresults, k)
	b.merrs = sched.GrowZeroed(b.merrs, k)
	for i := len(b.multis); i < k; i++ {
		b.multis = append(b.multis, NewMultiRunner())
	}
	for i, cfg := range cfgs {
		b.mresults[i], b.merrs[i] = b.multis[i].run(ctx, cfg)
	}
	return b.mresults, b.merrs
}
