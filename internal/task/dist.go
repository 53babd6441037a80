package task

import (
	"fmt"
	"math"
	"strings"

	"rtdvs/internal/fpx"
)

// This file adds per-task execution-time *distributions* to the exec-model
// family: beta, bimodal and empirical-histogram demand models, drawn by a
// deterministic sampler on the same splitmix64 key scheme the fault
// injector uses. Every draw is a pure function of (seed, task, invocation)
// — never of call order — so a distribution-backed model can be shared
// across batch lanes, replayed across policies, and still produce
// bit-identical demand sequences.

// Dist describes a demand distribution over the *fraction* of WCET an
// invocation consumes. Implementations are immutable value types; their
// support is (0, 1] (a zero-length invocation degenerates the model, so
// samplers clamp to a sliver of work, mirroring UniformFraction).
type Dist interface {
	// Mean returns the expected fraction E[X].
	Mean() float64
	// CDF returns P[X ≤ x] for x in [0, 1].
	CDF(x float64) float64
	// Quantile returns the p-th quantile for p in [0, 1]; it is the
	// (generalized) inverse of CDF and the basis of the keyed sampler.
	Quantile(p float64) float64
	// String names the distribution in ParseExec syntax ("beta=2,5").
	String() string
}

// minFrac is the smallest demand fraction a sampler emits: enough work
// that completion events still fire in order (see UniformFraction).
const minFrac = 1e-9

// --- deterministic keyed sampling (splitmix64, as in internal/fault) ---

// splitmix64 is the finalizer of Steele et al.'s SplitMix64 generator,
// the same mixing function internal/fault keys its draws with.
//
//rtdvs:hotpath
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// distDrawClass separates the demand-sampling stream from the fault
// injector's draw classes (whose class constants are small integers
// multiplied by the same mixing factor).
const distDrawClass uint64 = 0x5D15A24BAED4963E

// sampleU01 returns a uniform draw in [0, 1) keyed by (seed, ti, inv).
//
//rtdvs:hotpath
func sampleU01(seed int64, ti, inv int) float64 {
	h := splitmix64(uint64(seed))
	h = splitmix64(h ^ distDrawClass)
	h = splitmix64(h ^ uint64(int64(ti))*0x9FB21C651E98DF25)
	h = splitmix64(h ^ uint64(int64(inv))*0xD6E8FEB86659FD93)
	// 53 high bits -> [0, 1) double.
	return float64(h>>11) / (1 << 53)
}

// clampFrac forces a sampled fraction into the legal support (minFrac, 1].
func clampFrac(f float64) float64 {
	if math.IsNaN(f) || f < minFrac {
		return minFrac
	}
	if f > 1 {
		return 1
	}
	return f
}

// --- Beta distribution ---

// Beta is the Beta(α, β) demand distribution on (0, 1]: the classic
// two-parameter family for bounded execution times (α=β=1 is uniform;
// α>1, β>1 is unimodal; α<1 or β<1 pushes mass to the edges). Sampling
// is by inverse CDF on a single keyed uniform draw.
type Beta struct {
	A, B float64
}

// maxBetaShape bounds the Beta shape parameters. Near the mean the
// continued fraction in betaCF needs more terms as the shapes grow: at
// 1e4 it converges in about 110 of its 200, while from about 1e5 it hits
// the cap and returns an unconverged CDF.
const maxBetaShape = 1e4

// NewBeta validates the shape parameters. Both must be positive and
// finite and at most maxBetaShape, the largest shape for which the
// continued-fraction CDF still converges.
func NewBeta(a, b float64) (Beta, error) {
	if !(a > 0) || !(b > 0) || a > maxBetaShape || b > maxBetaShape {
		return Beta{}, fmt.Errorf("task: beta shapes must lie in (0, %g], got a=%v b=%v", maxBetaShape, a, b)
	}
	return Beta{A: a, B: b}, nil
}

// Mean implements Dist: E[X] = α/(α+β).
func (d Beta) Mean() float64 { return d.A / (d.A + d.B) }

// CDF implements Dist: the regularized incomplete beta function I_x(α, β).
func (d Beta) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	return regIncBeta(betaNorm(d.A, d.B), d.A, d.B, x)
}

// Quantile implements Dist by monotone bisection on the CDF, at most 64
// steps from [0, 1], with no rejection loop to bound. The log normaliser
// depends only on the shape, so it is computed once per call rather than
// once per step. regIncBeta must keep it the first term of the prefactor
// sum: the sum then rounds exactly as if the three log-gamma values were
// summed in place, so every CDF evaluation has the same bits.
//
// The loop stops once the midpoint is no longer strictly inside
// (lo, hi). The midpoints are exact dyadic values while lo and hi are
// more than one float apart; once they are adjacent the midpoint rounds
// onto lo or hi. From then on every step either leaves the bracket as it
// is or collapses it onto that midpoint, after which it cannot move, and
// the returned 0.5·(lo+hi) is that midpoint either way. Stopping early
// therefore returns exactly the bits the full 64 steps would;
// TestBetaQuantileMatchesSeedBisection pins both properties.
//
//rtdvs:hotpath
func (d Beta) Quantile(p float64) float64 {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return 1
	}
	norm := betaNorm(d.A, d.B)
	lo, hi := 0.0, 1.0
	for i := 0; i < 64; i++ {
		mid := 0.5 * (lo + hi)
		if !(lo < mid && mid < hi) {
			break
		}
		if regIncBeta(norm, d.A, d.B, mid) < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return 0.5 * (lo + hi)
}

func (d Beta) String() string { return fmt.Sprintf("beta=%g,%g", d.A, d.B) }

// betaNorm returns ln Γ(a+b) − ln Γ(a) − ln Γ(b), the log of 1/B(a, b):
// the shape-only part of regIncBeta's prefactor.
//
//rtdvs:hotpath
func betaNorm(a, b float64) float64 {
	lab, _ := math.Lgamma(a + b)
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	return lab - la - lb
}

// regIncBeta computes the regularized incomplete beta function I_x(a, b)
// with the standard continued-fraction expansion (Numerical Recipes
// §6.4), using the symmetry I_x(a,b) = 1 − I_{1−x}(b,a) to stay in the
// rapidly converging region. norm is betaNorm(a, b).
//
//rtdvs:hotpath
func regIncBeta(norm, a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	// ln of the prefactor x^a (1−x)^b / (a·B(a,b)).
	lnPre := norm + a*math.Log(x) + b*math.Log1p(-x)
	if x < (a+1)/(a+b+2) {
		return math.Exp(lnPre) * betaCF(a, b, x) / a
	}
	return 1 - math.Exp(lnPre)*betaCF(b, a, 1-x)/b
}

// betaCF evaluates the incomplete-beta continued fraction by the
// modified Lentz method. Iteration is bounded; for the shapes NewBeta
// admits it converges well inside the bound.
//
//rtdvs:hotpath
func betaCF(a, b, x float64) float64 {
	const (
		maxIter = 200
		eps     = 3e-14
		fpmin   = 1e-300
	)
	qab, qap, qam := a+b, a+1, a-1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < fpmin {
		d = fpmin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		m2 := float64(2 * m)
		fm := float64(m)
		aa := fm * (b - fm) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

// --- Bimodal distribution ---

// Bimodal is a two-mode mixture: with probability 1−HiProb the demand is
// uniform in [Lo−Width, Lo+Width], otherwise uniform in
// [Hi−Width, Hi+Width] (both intervals clipped to the unit support). It
// models workloads with a cheap common case and an expensive rare case —
// the regime where quantile-based reservation beats mean-based.
type Bimodal struct {
	Lo, Hi, HiProb, Width float64
}

// NewBimodal validates the mixture: modes in (0, 1], Lo ≤ Hi, HiProb in
// [0, 1], Width in [0, 0.5].
func NewBimodal(lo, hi, hiProb, width float64) (Bimodal, error) {
	switch {
	case !(lo > 0) || lo > 1 || !(hi > 0) || hi > 1 || math.IsNaN(lo) || math.IsNaN(hi):
		return Bimodal{}, fmt.Errorf("task: bimodal modes must lie in (0, 1], got lo=%v hi=%v", lo, hi)
	case lo > hi:
		return Bimodal{}, fmt.Errorf("task: bimodal modes must satisfy lo ≤ hi, got lo=%v hi=%v", lo, hi)
	case !(hiProb >= 0) || hiProb > 1:
		return Bimodal{}, fmt.Errorf("task: bimodal hiProb must lie in [0, 1], got %v", hiProb)
	case !(width >= 0) || width > 0.5 || math.IsNaN(width):
		return Bimodal{}, fmt.Errorf("task: bimodal width must lie in [0, 0.5], got %v", width)
	}
	return Bimodal{Lo: lo, Hi: hi, HiProb: hiProb, Width: width}, nil
}

// mode returns the clipped interval [a, b] around center c.
func (d Bimodal) mode(c float64) (a, b float64) {
	a, b = c-d.Width, c+d.Width
	if a < 0 {
		a = 0
	}
	if b > 1 {
		b = 1
	}
	return a, b
}

// Mean implements Dist (means of the clipped intervals, mixed).
func (d Bimodal) Mean() float64 {
	la, lb := d.mode(d.Lo)
	ha, hb := d.mode(d.Hi)
	return (1-d.HiProb)*0.5*(la+lb) + d.HiProb*0.5*(ha+hb)
}

// CDF implements Dist.
func (d Bimodal) CDF(x float64) float64 {
	cdfU := func(a, b float64) float64 {
		switch {
		case x <= a:
			return 0
		case x >= b:
			return 1
		default:
			return (x - a) / (b - a)
		}
	}
	la, lb := d.mode(d.Lo)
	ha, hb := d.mode(d.Hi)
	lc, hc := 1.0, 1.0
	if lb > la {
		lc = cdfU(la, lb)
	} else if x < la {
		lc = 0
	}
	if hb > ha {
		hc = cdfU(ha, hb)
	} else if x < ha {
		hc = 0
	}
	return (1-d.HiProb)*lc + d.HiProb*hc
}

// Quantile implements Dist: the draw first selects the mode (the low
// mode owns the probability mass [0, 1−HiProb)), then positions within
// it — a piecewise-linear exact inverse, no iteration needed.
func (d Bimodal) Quantile(p float64) float64 {
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	var a, b, u float64
	if lp := 1 - d.HiProb; p < lp || fpx.Eq(lp, 1) {
		a, b = d.mode(d.Lo)
		if lp > 0 {
			u = p / lp
		}
	} else {
		a, b = d.mode(d.Hi)
		if d.HiProb > 0 {
			u = (p - lp) / d.HiProb
		}
	}
	if u > 1 {
		u = 1
	}
	return a + u*(b-a)
}

func (d Bimodal) String() string {
	return fmt.Sprintf("bimodal=%g,%g,%g", d.Lo, d.Hi, d.HiProb)
}

// --- Empirical histogram ---

// Histogram is an empirical demand distribution: Weights[i] is the
// relative mass of the i-th of k equal-width bins spanning (0, 1], with
// demand uniform within a bin. It is how measured execution-time
// profiles (the paper's Section 4 traces) plug into the simulator.
type Histogram struct {
	Weights []float64
	total   float64
}

// maxHistBins bounds the histogram resolution (and the parse surface).
const maxHistBins = 64

// NewHistogram validates the bin weights: 1..maxHistBins finite
// non-negative weights with positive total mass.
func NewHistogram(weights []float64) (Histogram, error) {
	if len(weights) == 0 || len(weights) > maxHistBins {
		return Histogram{}, fmt.Errorf("task: histogram needs 1..%d bins, got %d", maxHistBins, len(weights))
	}
	var total float64
	for i, w := range weights {
		if !(w >= 0) || math.IsInf(w, 0) {
			return Histogram{}, fmt.Errorf("task: histogram weight %d must be finite and ≥ 0, got %v", i, w)
		}
		total += w
	}
	if !(total > 0) || math.IsInf(total, 0) {
		return Histogram{}, fmt.Errorf("task: histogram needs positive finite total mass, got %v", total)
	}
	return Histogram{Weights: append([]float64(nil), weights...), total: total}, nil
}

// Mean implements Dist (bin midpoints weighted by mass).
func (d Histogram) Mean() float64 {
	k := float64(len(d.Weights))
	var m float64
	for i, w := range d.Weights {
		mid := (float64(i) + 0.5) / k
		m += w * mid
	}
	return m / d.total
}

// CDF implements Dist.
func (d Histogram) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	k := float64(len(d.Weights))
	var acc float64
	for i, w := range d.Weights {
		lo, hi := float64(i)/k, (float64(i)+1)/k
		if x >= hi {
			acc += w
			continue
		}
		if x > lo {
			acc += w * (x - lo) / (hi - lo)
		}
		break
	}
	return acc / d.total
}

// Quantile implements Dist: walk the cumulative mass to the target bin,
// then interpolate linearly within it.
func (d Histogram) Quantile(p float64) float64 {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return 1
	}
	target := p * d.total
	k := float64(len(d.Weights))
	var acc float64
	for i, w := range d.Weights {
		if acc+w >= target && w > 0 {
			frac := (target - acc) / w
			return (float64(i) + frac) / k
		}
		acc += w
	}
	return 1
}

func (d Histogram) String() string {
	parts := make([]string, len(d.Weights))
	for i, w := range d.Weights {
		parts[i] = fmt.Sprintf("%g", w)
	}
	return "hist=" + strings.Join(parts, ",")
}

// --- distribution-backed exec model ---

// Distributions exposes per-task demand distributions. The
// distribution-backed exec models implement it, so a stochastic policy
// (core.StochasticSelect) can plan against the exact model driving the
// simulation.
type Distributions interface {
	// TaskDist returns the demand distribution of task index ti.
	TaskDist(ti int) Dist
}

// DistExec samples every invocation's demand from Dist by inverse CDF on
// a keyed uniform draw: Cycles(ti, inv, wcet) is a pure function of
// (Seed, ti, inv), independent of call order, so the model is safely
// shared across runs, policies and batch lanes.
type DistExec struct {
	D    Dist
	Seed int64
}

// Cycles implements ExecModel.
//
//rtdvs:hotpath
func (m DistExec) Cycles(ti, inv int, wcet float64) float64 {
	u := sampleU01(m.Seed, ti, inv)
	return clampFrac(m.D.Quantile(u)) * wcet
}

// TaskDist implements Distributions: one distribution models all tasks,
// like the other task-uniform exec models.
func (m DistExec) TaskDist(int) Dist { return m.D }

// String implements ExecModel.
func (m DistExec) String() string { return m.D.String() }
