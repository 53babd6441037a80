package task

import (
	"fmt"
	"math"
	"math/bits"
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
//
// NewBeta caches the shape-only constants of the CDF. A Beta{A, B}
// literal, or a value whose A or B changed after NewBeta, derives them
// on every CDF and Quantile call instead, with the same bits.
type Beta struct {
	A, B float64

	shape betaShape
}

// betaShape is a Beta's shape with the constants every evaluation of its
// CDF reads.
type betaShape struct {
	a, b float64
	// norm is ln Γ(a+b) − ln Γ(a) − ln Γ(b), the log of 1/B(a, b): the
	// shape-only part of the CDF's prefactor. mag is
	// |lnΓ(a+b)| + |lnΓ(a)| + |lnΓ(b)|, the size norm's rounding scales
	// with.
	norm, mag float64
	// sw is (a+1)/(a+b+2), the switch of the symmetry
	// I_x(a,b) = 1 − I_{1−x}(b,a): below it the continued fraction runs
	// on (a, b, x), from it on (b, a, 1−x).
	sw float64
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
	return Beta{A: a, B: b, shape: newBetaShape(a, b)}, nil
}

// newBetaShape derives the shape constants of Beta(a, b).
//
//rtdvs:hotpath
func newBetaShape(a, b float64) betaShape {
	lab, _ := math.Lgamma(a + b)
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	return betaShape{
		a: a, b: b,
		norm: lab - la - lb,
		mag:  math.Abs(lab) + math.Abs(la) + math.Abs(lb),
		sw:   (a + 1) / (a + b + 2),
	}
}

// shaped returns d's shape constants: the cached ones when they belong
// to d's A and B, bit for bit, and freshly derived ones otherwise.
//
//rtdvs:hotpath
func (d Beta) shaped() betaShape {
	if s := d.shape; s.sw > 0 && math.Float64bits(s.a) == math.Float64bits(d.A) &&
		math.Float64bits(s.b) == math.Float64bits(d.B) {
		return s
	}
	return newBetaShape(d.A, d.B)
}

// Mean implements Dist: E[X] = α/(α+β).
func (d Beta) Mean() float64 { return d.A / (d.A + d.B) }

// CDF implements Dist: the regularized incomplete beta function I_x(α, β).
func (d Beta) CDF(x float64) float64 {
	s := d.shaped()
	return s.regIncBeta(x)
}

// Quantile implements Dist by monotone bisection on the CDF, at most 64
// steps from [0, 1], with no rejection loop to bound. It returns the bits
// of the original loop, which evaluated the CDF at every midpoint: every
// step still decides regIncBeta(mid) < p at the same midpoint, and the
// loop only skips evaluations whose outcome is already known and runs
// the rest two at a time.
//
// The log normaliser depends only on the shape, so it is computed once
// (by NewBeta, or per call for a literal) rather than once per step.
// regIncBeta must keep it the first term of the prefactor sum: the sum
// then rounds exactly as if the three log-gamma values were summed in
// place, so every CDF evaluation has the same bits.
//
// Window. window finds an approximate quantile x̂ by Newton steps and
// verifies a window [wlo, whi] around it with one paired evaluation of
// the computed CDF F: F(wlo) < p−ε and F(whi) ≥ p+ε. Let δ bound the
// absolute error of F against the exact CDF G, which is monotone. A
// midpoint m < wlo then has F(m) ≤ G(m)+δ ≤ G(wlo)+δ ≤ F(wlo)+2δ < p, as
// ε ≥ 2δ, so the original loop moved lo to m; this loop does so without
// evaluating. Symmetrically a midpoint above whi has F(m) ≥ p and moves
// hi. Midpoints inside the window are evaluated by regIncBeta's
// arithmetic as before. Every step takes the original branch, so the
// bracket and the result are unchanged. The argument rests on the
// verified edges alone: how x̂ and the half-width τ were found only
// decides how often a window verifies and how narrow it is. The steps
// before the first midpoint inside the window evaluate nothing, and
// bisectToWindow takes them at once.
//
// The bound. F is a prefactor exp(norm + a ln x + b ln(1−x)) times the
// continued fraction, subtracted from 1 above the mean. The log
// prefactor rounds to within a few ulps of its terms' magnitudes (the
// three log-gamma values in norm, a|ln x| and b|ln(1−x)|); exp turns that
// into a relative error of a term at most 1. The fraction stops at a
// relative change of 3e-14 and rounds a few ulps per term. So
//
//	δ = 5e-14 + 4·2⁻⁵²·(|lnΓ(a+b)| + |lnΓ(a)| + |lnΓ(b)| + a|ln x| + b|ln(1−x)|)
//
// covers both with room, and ε = 2δ, taken at the last Newton point.
// Away from x̂ a log term grows only toward the tail whose CDF term the
// prefactor shrinks, so the bound holds at the skipped midpoints too.
//
// Newton. Each step takes one Log, Log1p and Exp, which serve ε, F and
// the pdf, pre/(x(1−x)); the pdf only sizes the step and τ, so its
// rounding cannot change a result. The iteration stops once F is within
// ε of p or the Halley-corrected step moves x by less than newtonStop of
// min(x, 1−x), and returns the corrected point without evaluating it:
// the window check, not Newton, makes the result exact. τ = 1.5·ε/pdf
// puts the edges at about p ∓ 1.5ε, so a converged x̂ verifies with ε/2
// to spare.
//
// Pairs. Inside the window the loop evaluates the midpoint together with
// the midpoint after it on the path toward x̂, and takes that second
// decision only when the first went as x̂ predicted, under the same
// 64-step cap and stop rule. regIncBetaPair gives each point regIncBeta's
// bits, so a pair decides exactly what two single steps would.
//
// Fallback. When Newton leaves (0, 1) or does not converge, or the
// window fails verification after windowTries widenings (NaN p, p within
// ε of 0 or 1, a guess that underflows at tiny shapes), the window is the
// whole [0, 1]: every midpoint is evaluated, which is the original loop
// by construction.
//
// The loop stops once the midpoint is no longer strictly inside
// (lo, hi). The midpoints are exact dyadic values while lo and hi are
// more than one float apart; once they are adjacent the midpoint rounds
// onto lo or hi. From then on every step either leaves the bracket as it
// is or collapses it onto that midpoint, after which it cannot move, and
// the returned 0.5·(lo+hi) is that midpoint either way. Stopping early
// therefore returns exactly the bits the full 64 steps would.
// TestBetaQuantileMatchesSeedBisection pins the result against the
// original loop, TestBetaWindowBracketsReference and
// FuzzBetaQuantileBitIdentical pin the window, and
// TestBisectToWindowMatchesSkipping pins the skipped steps.
//
//rtdvs:hotpath
func (d Beta) Quantile(p float64) float64 {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return 1
	}
	s := d.shaped()
	wlo, whi, xhat, ok := s.window(p)
	lo, hi, i := 0.0, 1.0, 0
	if ok {
		lo, hi, i = bisectToWindow(wlo, whi)
	}
	for ; i < 64; i++ {
		mid := 0.5 * (lo + hi)
		if !(lo < mid && mid < hi) {
			break
		}
		if mid < wlo {
			lo = mid
			continue
		}
		if mid > whi {
			hi = mid
			continue
		}
		up := mid < xhat // the predicted decision: F(mid) < p
		next := 0.5 * (lo + mid)
		if up {
			next = 0.5 * (mid + hi)
		}
		if i+1 == 64 || next < wlo || next > whi {
			// No second step to evaluate: the cap binds, or the window
			// decides the next midpoint without an evaluation.
			if s.regIncBeta(mid) < p {
				lo = mid
			} else {
				hi = mid
			}
			continue
		}
		fm, fn := s.regIncBetaPair(mid, next)
		below := fm < p
		if below {
			lo = mid
		} else {
			hi = mid
		}
		if below != up {
			continue
		}
		i++
		if !(lo < next && next < hi) {
			break
		}
		if fn < p {
			lo = next
		} else {
			hi = next
		}
	}
	return 0.5 * (lo + hi)
}

func (d Beta) String() string { return fmt.Sprintf("beta=%g,%g", d.A, d.B) }

// bisectToWindow returns the bracket [lo, hi] and the step i at which
// bisection from [0, 1] first meets a midpoint inside [wlo, whi], for
// 0 < wlo ≤ whi < 1, taking every earlier step at once. In units of
// 2⁻⁶⁴ step i's midpoint is an odd multiple of 2^(63−i), so the one met
// first is m, the multiple of the highest power of two in
// [⌈wlo·2⁶⁴⌉, ⌊whi·2⁶⁴⌋]; every earlier midpoint lies outside the window
// on the side of the bracket it moves. Both ends of that range have at
// most 53 significant bits, the images of floats or integers below 2⁵³,
// and m is one of them with low bits cleared, so m, its bracket and
// every earlier midpoint are floats: the original loop reached them by
// exact steps. When no multiple of 2⁻⁶⁴ lies in the window, it returns
// [0, 1] at step 0 for the loop to walk.
//
//rtdvs:hotpath
func bisectToWindow(wlo, whi float64) (lo, hi float64, i int) {
	l, h := uint64(math.Ceil(wlo*0x1p64)), uint64(whi*0x1p64)
	if l > h {
		return 0, 1, 0
	}
	// m is l unless l and h differ; then the highest bit b where they do
	// is set in h, and m is h cleared below b, unless l itself is a
	// multiple of 2^(b+1).
	m := l
	if l != h {
		b := bits.Len64(l^h) - 1
		if l&(1<<(b+1)-1) != 0 {
			m = h >> b << b
		}
	}
	tz := bits.TrailingZeros64(m)
	lo = float64(m-1<<tz) * 0x1p-64
	return lo, lo + math.Ldexp(1, tz-63), 63 - tz
}

const (
	// newtonSteps bounds newton's iteration. From the invbetai guess
	// the admitted shapes converge in two to four steps.
	newtonSteps = 8
	// newtonStop is the move, relative to min(x, 1−x), below which a
	// Newton step counts as converged. From a move of 1e-5 the Halley
	// step's error is far inside τ: on the 12 non-tiny shapes of the
	// bit-identity pin one of 240k keyed draws had to widen its window,
	// while 1e-4 widened it on about 19% of Beta(100, 200) draws.
	newtonStop = 1e-5
	// windowTries bounds the window verification attempts; each failed
	// attempt widens τ sixteenfold.
	windowTries = 3
)

// window returns a window [lo, hi] around the p-th quantile whose edges
// are verified against p with margin ε (see Beta.Quantile), or [0, 1]
// and ok = false when it cannot verify one, and the Newton estimate x̂
// either way.
//
//rtdvs:hotpath
func (s *betaShape) window(p float64) (lo, hi, xhat float64, ok bool) {
	xhat, eps, tau := s.newton(p)
	if !(tau > 0) {
		return 0, 1, xhat, false
	}
	okLo, okHi := false, false
	for try := 0; try < windowTries; try++ {
		// A verified edge stays where it is, and evaluating it again
		// repeats its verdict.
		if !okLo {
			lo = xhat - tau
		}
		if !okHi {
			hi = xhat + tau
		}
		flo, fhi := s.regIncBetaPair(lo, hi)
		okLo = lo > 0 && flo < p-eps
		okHi = hi < 1 && fhi >= p+eps
		if okLo && okHi {
			return lo, hi, xhat, true
		}
		tau *= 16
	}
	return 0, 1, xhat, false
}

// newton runs safeguarded Newton steps on F(x) = p from betaGuess, each
// with invbetai's Halley correction for the pdf's log-slope
// (α−1)/x − (β−1)/(1−x). It returns the approximate quantile x̂, the
// window margin ε at the last evaluated point, and the window half-width
// τ, which is 0 when the iteration left (0, 1) or did not converge.
//
//rtdvs:hotpath
func (s *betaShape) newton(p float64) (x, eps, tau float64) {
	a, b := s.a, s.b
	x = betaGuess(a, b, p)
	for i := 0; i < newtonSteps; i++ {
		if !(x > 0 && x < 1) {
			return x, eps, 0
		}
		lx, l1x := math.Log(x), math.Log1p(-x)
		eps = 1e-13 + 8*0x1p-52*(s.mag+a*math.Abs(lx)+b*math.Abs(l1x))
		pre := math.Exp(s.norm + a*lx + b*l1x)
		f := s.fromPrefactor(x, pre) - p
		pdf := pre / (x * (1 - x))
		u := f / pdf
		next := x - u/(1-0.5*math.Min(1, u*((a-1)/x-(b-1)/(1-x))))
		// Safeguard: a step that leaves (0, 1), or is NaN, halves the
		// distance to the edge it was heading for instead.
		if !(next > 0) {
			next = 0.5 * x
		} else if !(next < 1) {
			next = 0.5 * (x + 1)
		}
		if math.Abs(f) <= eps || math.Abs(next-x) < newtonStop*math.Min(x, 1-x) {
			// Either F(x) was already within ε of p or the step was
			// negligible, so next lands far closer than ε/pdf to the
			// quantile; 1.5ε/pdf puts the window edges at about p ∓ 1.5ε.
			return next, eps, 1.5 * eps / pdf
		}
		x = next
	}
	return x, eps, 0
}

// betaGuess is the initial quantile estimate of Numerical Recipes'
// invbetai (§6.14): for α, β ≥ 1 a Cornish-Fisher style correction of a
// normal deviate, otherwise the inverse of the CDF's leading power term
// in whichever tail owns p.
//
//rtdvs:hotpath
func betaGuess(a, b, p float64) float64 {
	if a >= 1 && b >= 1 {
		pp := p
		if p >= 0.5 {
			pp = 1 - p
		}
		t := math.Sqrt(-2 * math.Log(pp))
		x := (2.30753+t*0.27061)/(1+t*(0.99229+t*0.04481)) - t
		if p < 0.5 {
			x = -x
		}
		al := (x*x - 3) / 6
		h := 2 / (1/(2*a-1) + 1/(2*b-1))
		w := x*math.Sqrt(al+h)/h - (1/(2*b-1)-1/(2*a-1))*(al+5.0/6-2/(3*h))
		return a / (a + b*math.Exp(2*w))
	}
	t := math.Exp(a*math.Log(a/(a+b))) / a
	u := math.Exp(b*math.Log(b/(a+b))) / b
	w := t + u
	if p < t/w {
		return math.Pow(a*w*p, 1/a)
	}
	return 1 - math.Pow(b*w*(1-p), 1/b)
}

// regIncBeta computes the regularized incomplete beta function I_x(a, b)
// with the standard continued-fraction expansion (Numerical Recipes
// §6.4), using the symmetry I_x(a,b) = 1 − I_{1−x}(b,a) to stay in the
// rapidly converging region.
//
//rtdvs:hotpath
func (s *betaShape) regIncBeta(x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	return s.fromPrefactor(x, s.prefactor(x))
}

// fromPrefactor returns I_x(a, b) for x in (0, 1) from its prefactor
// pre = prefactor(x): pre times the continued fraction below the switch,
// its complement above it.
//
//rtdvs:hotpath
func (s *betaShape) fromPrefactor(x, pre float64) float64 {
	if x < s.sw {
		return pre * betaCF(s.a, s.b, x) / s.a
	}
	return 1 - pre*betaCF(s.b, s.a, 1-x)/s.b
}

// regIncBetaPair returns regIncBeta(x) and regIncBeta(y), each with its
// own bits. Two points in (0, 1) on the same side of the switch share
// one loop over both continued fractions; otherwise it makes two single
// evaluations.
//
//rtdvs:hotpath
func (s *betaShape) regIncBetaPair(x, y float64) (fx, fy float64) {
	if !(x > 0 && x < 1 && y > 0 && y < 1) || (x < s.sw) != (y < s.sw) {
		return s.regIncBeta(x), s.regIncBeta(y)
	}
	px, py := s.prefactor(x), s.prefactor(y)
	if x < s.sw {
		hx, hy := betaCFPair(s.a, s.b, x, y)
		return px * hx / s.a, py * hy / s.a
	}
	hx, hy := betaCFPair(s.b, s.a, 1-x, 1-y)
	return 1 - px*hx/s.b, 1 - py*hy/s.b
}

// prefactor returns x^a (1−x)^b / B(a, b), with norm the first term of
// its log (see Beta.Quantile).
//
//rtdvs:hotpath
func (s *betaShape) prefactor(x float64) float64 {
	return math.Exp(s.norm + s.a*math.Log(x) + s.b*math.Log1p(-x))
}

// The continued fraction's bounds: at most cfMaxIter terms, a stop at a
// relative change below cfEps, and Numerical Recipes' floor cfMin on
// the Lentz denominators. For the shapes NewBeta admits it converges
// well inside the bound.
const (
	cfMaxIter = 200
	cfEps     = 3e-14
	cfMin     = 1e-300
)

// betaCF evaluates the incomplete-beta continued fraction by the
// modified Lentz method.
//
//rtdvs:hotpath
func betaCF(a, b, x float64) float64 {
	qab, qap, qam := a+b, a+1, a-1
	c, d := 1.0, lentzInv(1-qab*x/qap)
	h := d
	for m := 1; m <= cfMaxIter; m++ {
		m2, fm := float64(2*m), float64(m)
		var del float64
		c, d, del = lentz(c, d, fm*(b-fm)*x/((qam+m2)*(a+m2)))
		h *= del
		c, d, del = lentz(c, d, -(a+fm)*(qab+fm)*x/((a+m2)*(qap+m2)))
		h *= del
		if math.Abs(del-1) < cfEps {
			break
		}
	}
	return h
}

// betaCFPair evaluates betaCF(a, b, x) and betaCF(a, b, y) in one loop.
// Each lane has its own Lentz state and stops at its own convergence,
// so each returns betaCF's bits; the two interleaved dependency chains
// keep the divider busy where one leaves it waiting.
//
//rtdvs:hotpath
func betaCFPair(a, b, x, y float64) (hx, hy float64) {
	qab, qap, qam := a+b, a+1, a-1
	cx, dx := 1.0, lentzInv(1-qab*x/qap)
	cy, dy := 1.0, lentzInv(1-qab*y/qap)
	hx, hy = dx, dy
	liveX, liveY := true, true
	for m := 1; m <= cfMaxIter && (liveX || liveY); m++ {
		m2, fm := float64(2*m), float64(m)
		en, ed := fm*(b-fm), (qam+m2)*(a+m2)
		on, od := -(a+fm)*(qab+fm), (a+m2)*(qap+m2)
		var del float64
		if liveX {
			cx, dx, del = lentz(cx, dx, en*x/ed)
			hx *= del
			cx, dx, del = lentz(cx, dx, on*x/od)
			hx *= del
			liveX = !(math.Abs(del-1) < cfEps)
		}
		if liveY {
			cy, dy, del = lentz(cy, dy, en*y/ed)
			hy *= del
			cy, dy, del = lentz(cy, dy, on*y/od)
			hy *= del
			liveY = !(math.Abs(del-1) < cfEps)
		}
	}
	return hx, hy
}

// lentz applies one term aa of the fraction to the modified-Lentz state
// (c, d) and returns the new state with the factor d·c the fraction
// takes.
//
//rtdvs:hotpath
func lentz(c, d, aa float64) (c2, d2, del float64) {
	d = lentzInv(1 + aa*d)
	c = 1 + aa/c
	if math.Abs(c) < cfMin {
		c = cfMin
	}
	return c, d, d * c
}

// lentzInv floors a Lentz denominator's magnitude at cfMin, as Numerical
// Recipes does, and returns its reciprocal.
//
//rtdvs:hotpath
func lentzInv(d float64) float64 {
	if math.Abs(d) < cfMin {
		d = cfMin
	}
	return 1 / d
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
