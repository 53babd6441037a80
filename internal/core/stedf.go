package core

import (
	"fmt"

	"rtdvs/internal/machine"
	"rtdvs/internal/sched"
	"rtdvs/internal/stats"
	"rtdvs/internal/task"
)

// stEDF is the statistical RT-DVS extension the paper's conclusion points
// at ("we will investigate DVS with probabilistic or statistical deadline
// guarantees"), in the spirit of Gruian's stochastic scheme [8].
//
// Where ccEDF reserves each released task's full worst case until it
// completes, stEDF reserves only an online estimate of the q-th quantile
// of the task's actual demand (learned per task with a P² estimator). As
// long as an invocation stays within its estimated budget, the reserved
// utilization — and hence the operating frequency and voltage — is lower
// than ccEDF's. If an invocation overruns the estimate, the policy
// immediately restores the task's worst-case reservation, so exposure is
// limited to the window between the overrun and the next scheduling
// event. The reservation and the escalation are the budgeted layer
// (ccedf.go) stEDF shares with stSelect.
//
// The resulting guarantee is statistical: a deadline can be missed only
// in an interval where some invocation exceeds its q-th-quantile budget,
// so with independent demands the per-invocation miss probability is
// bounded by roughly (1−q) times the probability that the lost capacity
// mattered. The hard variants of the paper never miss; this one trades a
// tunable, small miss probability for extra energy savings — exactly the
// trade the future-work section contemplates.
type stEDF struct {
	budgeted
	q   float64
	est []*stats.Quantile // learned demand distribution, per task
}

// StatisticalEDF returns an stEDF policy targeting the q-th demand
// quantile, 0 < q < 1 (e.g. 0.95 reserves the estimated 95th percentile).
func StatisticalEDF(q float64) (Policy, error) {
	if !(q > 0 && q < 1) {
		return nil, fmt.Errorf("core: stEDF quantile %v outside (0, 1)", q)
	}
	return &stEDF{q: q}, nil
}

func (p *stEDF) Name() string { return "stEDF" }

func (p *stEDF) Attach(ts *task.Set, m *machine.Spec) error {
	if err := p.attach(ts, m); err != nil {
		return err
	}
	// The deadline guarantee is statistical by design, never absolute.
	p.guaranteed = false
	p.est = sched.GrowZeroed(p.est, ts.Len())
	for i := range p.est {
		est, err := stats.NewQuantile(p.q)
		if err != nil {
			return err
		}
		p.est[i] = est
	}
	p.reserveBudgets()
	return nil
}

// quantileBudget returns the cycles to reserve for a fresh invocation of
// task i: the learned q-th quantile once enough history exists, the
// worst case before that (and never more than the worst case).
func (p *stEDF) quantileBudget(i int) float64 {
	wcet := p.tp[i].wcet
	const warmup = 10 // invocations before trusting the estimate
	if p.est[i].N() < warmup {
		return wcet
	}
	b := p.est[i].Value()
	if b > wcet {
		b = wcet
	}
	if b <= 0 {
		b = wcet
	}
	return b
}

func (p *stEDF) OnRelease(_ System, i int) { p.charge(i, p.quantileBudget(i)) }

func (p *stEDF) OnCompletion(sys System, i int, used float64) {
	p.est[i].Add(used)
	p.reservation.OnCompletion(sys, i, used)
}

// extensionFactories registers the extension policies that are not part
// of the paper's Table 4 set, with their default parameterizations:
// "interval" (average-throughput governor, 20 ms window, 0.7 target),
// "stEDF" (statistical EDF at the 95th percentile), "fbEDF" (feedback
// miss-rate control at the default setpoint), and "stSelect"
// (expected-energy-optimal stochastic frequency selection; the planning
// model is wired by the substrates when the exec model carries one).
// The adaptive extensions also come in "+contain" variants. Like
// policyFactories, this is a policy registry the policyreg analyzer
// checks implementations against.
//
//rtdvs:policyregistry
var extensionFactories = map[string]func() (Policy, error){
	"interval": func() (Policy, error) { return IntervalDVS(20, 0.7) },
	"stEDF":    func() (Policy, error) { return StatisticalEDF(0.95) },
	"fbEDF":    func() (Policy, error) { return FeedbackEDF(fbDefaultSetpoint) },
	"stSelect": func() (Policy, error) { return StochasticSelect(nil), nil },
	"fbEDF+contain": func() (Policy, error) {
		p, err := FeedbackEDF(fbDefaultSetpoint)
		if err != nil {
			return nil, err
		}
		return Contained(p), nil
	},
	"stSelect+contain": func() (Policy, error) { return Contained(StochasticSelect(nil)), nil },
	// Gang multiprocessor variants (see gang.go): one instance drives the
	// shared voltage rail of all cores under global EDF. On a single-core
	// spec they degenerate to their uniprocessor counterparts.
	"gangStaticEDF": func() (Policy, error) { return GangStaticEDF(), nil },
	"gangCCEDF":     func() (Policy, error) { return GangCCEDF(), nil },
	"gangLAEDF":     func() (Policy, error) { return GangLAEDF(), nil },
}

// ExtendedByName resolves the extension policies by name; paper policies
// fall through to ByName.
func ExtendedByName(name string) (Policy, error) {
	if f, ok := extensionFactories[name]; ok {
		return f()
	}
	return ByName(name)
}

// ExtendedNames lists every available policy: the Table 4 set plus the
// extensions.
func ExtendedNames() []string {
	return append(Names(), "interval", "stEDF", "fbEDF", "stSelect",
		"fbEDF+contain", "stSelect+contain",
		"gangStaticEDF", "gangCCEDF", "gangLAEDF")
}
