package task

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"rtdvs/internal/machine"
)

func TestBetaMomentsAndInverse(t *testing.T) {
	cases := []struct{ a, b float64 }{
		{1, 1}, {2, 2}, {2, 5}, {5, 2}, {0.5, 0.5}, {8, 1}, {1, 8},
	}
	for _, c := range cases {
		d, err := NewBeta(c.a, c.b)
		if err != nil {
			t.Fatalf("NewBeta(%v,%v): %v", c.a, c.b, err)
		}
		if got, want := d.Mean(), c.a/(c.a+c.b); math.Abs(got-want) > 1e-12 {
			t.Errorf("Beta(%v,%v).Mean() = %v, want %v", c.a, c.b, got, want)
		}
		// CDF∘Quantile is identity (to the CDF's own accuracy).
		for _, p := range []float64{0.01, 0.1, 0.5, 0.9, 0.99} {
			x := d.Quantile(p)
			if got := d.CDF(x); math.Abs(got-p) > 1e-9 {
				t.Errorf("Beta(%v,%v): CDF(Quantile(%v)) = %v", c.a, c.b, p, got)
			}
		}
		// CDF is monotone over the support.
		prev := -1.0
		for x := 0.0; x <= 1.0+1e-12; x += 1.0 / 64 {
			v := d.CDF(x)
			if v < prev-1e-12 {
				t.Fatalf("Beta(%v,%v): CDF not monotone at %v", c.a, c.b, x)
			}
			prev = v
		}
	}
}

func TestBetaUniformSpecialCase(t *testing.T) {
	// Beta(1,1) is uniform: CDF(x) = x exactly (to numerical accuracy).
	d, _ := NewBeta(1, 1)
	for _, x := range []float64{0.1, 0.25, 0.5, 0.75, 0.9} {
		if got := d.CDF(x); math.Abs(got-x) > 1e-10 {
			t.Errorf("Beta(1,1).CDF(%v) = %v", x, got)
		}
	}
}

func TestNewBetaRejectsBadShapes(t *testing.T) {
	for _, c := range []struct{ a, b float64 }{
		{0, 1}, {1, 0}, {-1, 1}, {math.NaN(), 1}, {1, math.Inf(1)}, {math.Inf(-1), 1},
		{1e7, 1}, {1e5, 1}, {1, 1e5}, {math.Nextafter(maxBetaShape, math.Inf(1)), 1},
	} {
		if _, err := NewBeta(c.a, c.b); err == nil {
			t.Errorf("NewBeta(%v,%v): want error", c.a, c.b)
		}
	}
}

// At the largest admitted shape the continued fraction still converges:
// the symmetric Beta(1e4, 1e4) has its median at exactly 1/2. Above the
// limit it did not (Beta(1e6, 1e6).CDF(0.5) came out as 0.49969).
func TestBetaShapeLimitConverges(t *testing.T) {
	d, err := NewBeta(maxBetaShape, maxBetaShape)
	if err != nil {
		t.Fatal(err)
	}
	// The residual, about 1.4e-11, is the rounding of the log-gamma terms
	// (each near 1.8e5) in the normaliser, not an unconverged fraction.
	if got := d.CDF(0.5); math.Abs(got-0.5) > 1e-10 {
		t.Fatalf("Beta(%g,%g).CDF(0.5) = %v, want 0.5 within 1e-10", maxBetaShape, maxBetaShape, got)
	}
}

// refRegIncBeta and refBetaQuantile freeze the original sampler: 64
// bisection steps from [0, 1], each CDF evaluation recomputing the three
// log-gamma values and running the original continued fraction
// refBetaCF, with no early stop. Beta.Quantile must return the same bits
// for every shape and probability.
func refRegIncBeta(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	lbeta, _ := math.Lgamma(a + b)
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lnPre := lbeta - la - lb + a*math.Log(x) + b*math.Log1p(-x)
	if x < (a+1)/(a+b+2) {
		return math.Exp(lnPre) * refBetaCF(a, b, x) / a
	}
	return 1 - math.Exp(lnPre)*refBetaCF(b, a, 1-x)/b
}

// refBetaCF is the original sampler's continued fraction, kept apart
// from the production betaCF so that a change to the fraction's
// arithmetic cannot move the reference along with it.
func refBetaCF(a, b, x float64) float64 {
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

func refBetaQuantile(a, b, p float64) float64 {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return 1
	}
	lo, hi := refBetaBracket(a, b, p)
	return 0.5 * (lo + hi)
}

// refBetaBracket is the reference bisection's final bracket. After its 64
// steps it is at least 2⁻⁶⁴ wide, so below about 1e-11 it is wider than
// the ulps of the quantile it holds.
func refBetaBracket(a, b, p float64) (lo, hi float64) {
	lo, hi = 0.0, 1.0
	for i := 0; i < 64; i++ {
		mid := 0.5 * (lo + hi)
		if refRegIncBeta(a, b, mid) < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, hi
}

// bitIdenticalShapes are the shapes the bit-identity pin covers: the
// TestBetaMomentsAndInverse shapes plus edge-heavy, skewed, large and
// limit-sized ones.
var bitIdenticalShapes = []struct{ a, b float64 }{
	{1, 1}, {2, 2}, {2, 5}, {5, 2}, {0.5, 0.5}, {8, 1}, {1, 8},
	{0.3, 3}, {2, 8}, {50, 1}, {100, 200}, {1e-3, 1e-3}, {1e4, 3},
}

func TestBetaQuantileMatchesSeedBisection(t *testing.T) {
	edges := []float64{0, 1, 5e-324, 1e-300, math.Nextafter(1, 0), 0.5}
	for k := 0; k <= 4096; k++ {
		edges = append(edges, float64(k)/4096)
	}
	keys := 100_000
	if testing.Short() {
		keys = 10_000
	}
	for si, s := range bitIdenticalShapes {
		t.Run(fmt.Sprintf("%g,%g", s.a, s.b), func(t *testing.T) {
			t.Parallel()
			d, err := NewBeta(s.a, s.b)
			if err != nil {
				t.Fatalf("NewBeta(%v,%v): %v", s.a, s.b, err)
			}
			check := func(p float64) {
				got, want := d.Quantile(p), refBetaQuantile(s.a, s.b, p)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("Beta(%v,%v).Quantile(%v) = %v (%#x), reference %v (%#x)",
						s.a, s.b, p, got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
			for _, p := range edges {
				check(p)
			}
			for i := 0; i < keys; i++ {
				check(sampleU01(int64(si), i%8, i/8))
			}
		})
	}
}

// TestBetaWindowBracketsReference pins the window Beta.Quantile skips
// CDF evaluations outside of. Whenever window verifies a window, the
// frozen reference quantile lies inside it, up to the width of the
// reference's final bracket: the window overlaps that bracket. On the
// TestBetaMomentsAndInverse shapes, the first seven of
// bitIdenticalShapes, at least 99% of draws verify one, so an
// implementation that always falls back fails. Edge probabilities, and
// the lower-tail-underflowing shape (1e-3, 1e-3), reach the fallback and
// still match bit for bit.
func TestBetaWindowBracketsReference(t *testing.T) {
	const (
		keys         = 10_000
		momentShapes = 7
	)
	for si, s := range bitIdenticalShapes {
		t.Run(fmt.Sprintf("%g,%g", s.a, s.b), func(t *testing.T) {
			t.Parallel()
			d, err := NewBeta(s.a, s.b)
			if err != nil {
				t.Fatalf("NewBeta(%v,%v): %v", s.a, s.b, err)
			}
			sh := newBetaShape(s.a, s.b)
			fallbackMatches := func(p float64) {
				t.Helper()
				if _, _, _, ok := sh.window(p); ok {
					t.Fatalf("p=%v verified a window, want the fallback", p)
				}
				got, want := d.Quantile(p), refBetaQuantile(s.a, s.b, p)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("fallback Quantile(%v) = %v, reference %v", p, got, want)
				}
			}
			for _, p := range []float64{math.NaN(), 5e-324, math.Nextafter(1, 0)} {
				fallbackMatches(p)
			}
			verified := 0
			for i := 0; i < keys; i++ {
				p := sampleU01(int64(si), i%8, i/8)
				lo, hi, _, ok := sh.window(p)
				if !ok {
					fallbackMatches(p)
					continue
				}
				verified++
				if rlo, rhi := refBetaBracket(s.a, s.b, p); !(lo <= rhi && rlo <= hi) {
					t.Fatalf("p=%v: window [%v, %v] misses reference bracket [%v, %v]", p, lo, hi, rlo, rhi)
				}
			}
			if si < momentShapes && verified < keys*99/100 {
				t.Errorf("verified %d of %d windows, want at least 99%%", verified, keys)
			}
			if s.a < 0.01 && verified == keys {
				t.Errorf("every draw verified a window; the tiny shape should reach the fallback")
			}
		})
	}
}

// A deep-tail draw of a skewed shape starts from the tail's leading
// term, so its window verifies where the normal deviate's guess ran
// Newton out of steps and fell back to the full bisection: Beta(50, 1)
// at p = 1.27e-6, whose quantile p^(1/50) = 0.762 the term gives
// exactly, and its mirror Beta(1, 50) at 1 − p.
func TestBetaDeepTailWindowVerifies(t *testing.T) {
	const p = 1.27e-6
	for _, c := range []struct{ a, b, p, want float64 }{
		{50, 1, p, math.Pow(p, 1.0/50)},
		{1, 50, 1 - p, 1 - math.Pow(p, 1.0/50)},
	} {
		sh := newBetaShape(c.a, c.b)
		lo, hi, _, ok := sh.window(c.p)
		if !ok {
			t.Errorf("Beta(%v,%v) p=%v fell back to the full bisection", c.a, c.b, c.p)
			continue
		}
		if !(lo <= c.want && c.want <= hi) {
			t.Errorf("Beta(%v,%v) p=%v: window [%v, %v] misses the quantile %v", c.a, c.b, c.p, lo, hi, c.want)
		}
		d, _ := NewBeta(c.a, c.b)
		if got, want := d.Quantile(c.p), refBetaQuantile(c.a, c.b, c.p); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("Beta(%v,%v).Quantile(%v) = %v, reference %v", c.a, c.b, c.p, got, want)
		}
	}
}

// FuzzBetaQuantileBitIdentical holds Beta.Quantile to the frozen
// reference bisection, bit for bit, for any admitted shape and any p,
// and holds every window it verifies to bracket the reference.
// The seeds include probabilities and shapes that reach the fallback.
func FuzzBetaQuantileBitIdentical(f *testing.F) {
	f.Add(2.0, 5.0, 0.3)
	f.Add(1e-3, 1e-3, 1e-300)
	f.Add(1e4, 3.0, math.Nextafter(1, 0))
	f.Add(0.5, 0.5, 5e-324)
	f.Add(100.0, 200.0, math.NaN())
	f.Add(2.0, 5.0, math.NaN())
	f.Add(2.0, 5.0, 1e-300)
	f.Add(0.3, 3.0, math.Nextafter(1, 0))
	f.Add(1e-3, 1e-3, 0.7)
	f.Add(1e-3, 2.0, 0.5)
	// Quantiles at the switch point (a+1)/(a+b+2), where a window or a
	// pair can straddle the two branches of regIncBeta.
	for _, s := range []struct{ a, b float64 }{{2, 5}, {0.5, 0.5}, {100, 200}} {
		f.Add(s.a, s.b, Beta{A: s.a, B: s.b}.CDF((s.a+1)/(s.a+s.b+2)))
	}
	// Quantiles below 2⁻⁶⁴, where the 64-step cap binds: the first
	// reaches it on paired evaluations from the [0, 1] fallback.
	f.Add(1e-3, 2.0, 1e-300)
	f.Add(2.0, 5.0, 1e-40)
	// Deep-tail draws that start from the tail's leading term.
	f.Add(50.0, 1.0, 1.27e-6)
	f.Add(1.0, 50.0, 1-1.27e-6)
	f.Fuzz(func(t *testing.T, a, b, p float64) {
		d, err := NewBeta(a, b)
		if err != nil {
			t.Skip()
		}
		got, want := d.Quantile(p), refBetaQuantile(a, b, p)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Beta(%v,%v).Quantile(%v) = %v, reference %v", a, b, p, got, want)
		}
		sh := newBetaShape(a, b)
		if lo, hi, _, ok := sh.window(p); ok {
			if rlo, rhi := refBetaBracket(a, b, p); !(lo <= rhi && rlo <= hi) {
				t.Fatalf("Beta(%v,%v) p=%v: window [%v, %v] misses reference bracket [%v, %v]", a, b, p, lo, hi, rlo, rhi)
			}
		}
	})
}

// skipOutside is the bisection's skipping from step i: while the
// midpoint lies outside [wlo, whi] it moves the bracket, and it stops at
// the first midpoint inside, at the stop rule or at the 64-step cap.
func skipOutside(wlo, whi, lo, hi float64, i int) (float64, float64, int) {
	for ; i < 64; i++ {
		mid := 0.5 * (lo + hi)
		switch {
		case !(lo < mid && mid < hi):
			return lo, hi, i
		case mid < wlo:
			lo = mid
		case mid > whi:
			hi = mid
		default:
			return lo, hi, i
		}
	}
	return lo, hi, i
}

// TestBisectToWindowMatchesSkipping holds bisectToWindow to the steps it
// replaces: skipping on from where it lands ends where skipping from
// [0, 1] does, for windows with dyadic and non-dyadic edges, degenerate,
// tiny and near-edge windows, and the windows verified for the
// bit-identity shapes. On a window at least 1e-15 wide inside
// [0.01, 0.99] it must take every skipped step itself.
func TestBisectToWindowMatchesSkipping(t *testing.T) {
	type window struct{ lo, hi float64 }
	ws := []window{
		{0.5, 0.5}, {0.25, 0.75}, {0.375, 0.375}, {0.375, 0.4}, {0.3, 0.375},
		{0.1, 0.1}, {1e-300, 2e-300}, {1e-30, 1e-29}, {0x1p-64, 0x1p-64},
		{0x1p-53, 0x1p-52}, {1e-19, 1e-19 + 1e-30}, {math.Nextafter(1, 0), math.Nextafter(1, 0)},
		{1 - 0x1p-40, 1 - 0x1p-41}, {0x1p-11, 0x1p-11}, {3 * 0x1p-60, 3 * 0x1p-60},
		{0.3, 0.3}, {0.3, math.Nextafter(0.3, 1)}, {math.Nextafter(0.3, 0), 0.3}, {0.7, 0.7},
	}
	for k := 0; k < 20000; k++ {
		c := 0.01 + 0.98*sampleU01(1, k, 0)
		w := math.Pow(10, -15+14*sampleU01(2, k, 0))
		ws = append(ws, window{c - w*sampleU01(3, k, 0), c + w*sampleU01(4, k, 0)})
	}
	for si, s := range bitIdenticalShapes {
		sh := newBetaShape(s.a, s.b)
		for k := 0; k < 500; k++ {
			if lo, hi, _, ok := sh.window(sampleU01(int64(si), k, 1)); ok {
				ws = append(ws, window{lo, hi})
			}
		}
	}
	for _, w := range ws {
		lo, hi, i := bisectToWindow(w.lo, w.hi)
		glo, ghi, gi := skipOutside(w.lo, w.hi, lo, hi, i)
		rlo, rhi, ri := skipOutside(w.lo, w.hi, 0, 1, 0)
		if math.Float64bits(glo) != math.Float64bits(rlo) || math.Float64bits(ghi) != math.Float64bits(rhi) || gi != ri {
			t.Fatalf("window [%v, %v]: landed at [%v, %v] step %d, skipping on ends at [%v, %v] step %d, from [0, 1] at [%v, %v] step %d",
				w.lo, w.hi, lo, hi, i, glo, ghi, gi, rlo, rhi, ri)
		}
		if w.hi-w.lo >= 1e-15 && w.lo >= 0.01 && w.hi <= 0.99 && i != ri {
			t.Fatalf("window [%v, %v]: bisectToWindow stopped at step %d, skipping reaches step %d", w.lo, w.hi, i, ri)
		}
	}
}

// TestRegIncBetaPairLanes holds each lane of the paired evaluation to
// the single evaluation's bits: regIncBetaPair against regIncBeta, and
// betaCFPair against betaCF for the fractions the pair runs.
func TestRegIncBetaPairLanes(t *testing.T) {
	for _, c := range []struct {
		name    string
		a, b    float64
		x, y    float64
		clamped bool // a lane of betaCFPair(a, b, x, y) floors a Lentz denominator
	}{
		{name: "lower branch", a: 2, b: 5, x: 0.25, y: 0.25 + 1e-13},
		{name: "upper branch", a: 2, b: 5, x: 0.6, y: 0.6 - 1e-13},
		{name: "upper branch, skewed", a: 0.5, b: 0.5, x: 0.9, y: 0.7},
		{name: "lanes converge apart", a: 2, b: 8, x: 1e-3, y: 0.2},
		{name: "lanes converge apart, swapped", a: 2, b: 8, x: 0.2, y: 1e-3},
		{name: "straddles the switch", a: 2, b: 5, x: 0.3, y: 0.4},
		{name: "outside (0, 1)", a: 2, b: 5, x: -0.1, y: 0.3},
		// The fractions of these shapes reach 0 exactly in a Lentz
		// denominator: before the loop at (1, 3, 0.5), in d at
		// (1, 4, 0.5) and in c at (2, 8, 0.9375).
		{name: "initial clamp in x", a: 1, b: 3, x: 0.5, y: 0.25, clamped: true},
		{name: "initial clamp in y", a: 1, b: 3, x: 0.25, y: 0.5, clamped: true},
		{name: "d clamp", a: 1, b: 4, x: 0.5, y: 0.125, clamped: true},
		{name: "c clamp", a: 2, b: 8, x: 0.5, y: 0.9375, clamped: true},
	} {
		t.Run(c.name, func(t *testing.T) {
			same := func(what string, got, want float64) {
				t.Helper()
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("%s = %v (%#x), single evaluation %v (%#x)",
						what, got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
			s := newBetaShape(c.a, c.b)
			fx, fy := s.regIncBetaPair(c.x, c.y)
			same("regIncBetaPair x lane", fx, s.regIncBeta(c.x))
			same("regIncBetaPair y lane", fy, s.regIncBeta(c.y))
			hx, hy := betaCFPair(c.a, c.b, c.x, c.y)
			same("betaCFPair x lane", hx, betaCF(c.a, c.b, c.x))
			same("betaCFPair y lane", hy, betaCF(c.a, c.b, c.y))
			if c.clamped {
				same("betaCF against the original fraction, x", betaCF(c.a, c.b, c.x), refBetaCF(c.a, c.b, c.x))
				same("betaCF against the original fraction, y", betaCF(c.a, c.b, c.y), refBetaCF(c.a, c.b, c.y))
			}
		})
	}
}

// TestBetaLiteralMatchesNewBeta holds the shape constants NewBeta caches
// to the ones a Beta{A, B} literal derives per call, and a constructed
// value whose shapes were reassigned to the literal of its new shapes:
// CDF and Quantile give the same bits.
func TestBetaLiteralMatchesNewBeta(t *testing.T) {
	for si, s := range bitIdenticalShapes {
		built, err := NewBeta(s.a, s.b)
		if err != nil {
			t.Fatalf("NewBeta(%v,%v): %v", s.a, s.b, err)
		}
		moved, _ := NewBeta(1, 1)
		moved.A, moved.B = s.a, s.b
		lit := Beta{A: s.a, B: s.b}
		for i := 0; i < 200; i++ {
			p := sampleU01(int64(si), i, 0)
			for _, d := range []Beta{built, moved} {
				if got, want := d.Quantile(p), lit.Quantile(p); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("Beta(%v,%v).Quantile(%v) = %v, literal %v", s.a, s.b, p, got, want)
				}
				if got, want := d.CDF(p), lit.CDF(p); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("Beta(%v,%v).CDF(%v) = %v, literal %v", s.a, s.b, p, got, want)
				}
			}
		}
	}
}

func TestBimodalQuantileAndMass(t *testing.T) {
	d, err := NewBimodal(0.2, 0.9, 0.1, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	// 90% of draws land in the low mode, 10% in the high mode.
	if q := d.Quantile(0.5); q < 0.15 || q > 0.25 {
		t.Errorf("median %v outside low mode", q)
	}
	if q := d.Quantile(0.95); q < 0.85 || q > 0.95 {
		t.Errorf("p95 %v outside high mode", q)
	}
	want := 0.9*0.2 + 0.1*0.9
	if got := d.Mean(); math.Abs(got-want) > 1e-12 {
		t.Errorf("Mean() = %v, want %v", got, want)
	}
	for _, p := range []float64{0.05, 0.5, 0.89, 0.91, 0.99} {
		x := d.Quantile(p)
		if got := d.CDF(x); math.Abs(got-p) > 1e-9 {
			t.Errorf("CDF(Quantile(%v)) = %v", p, got)
		}
	}
}

func TestBimodalDegenerateWidths(t *testing.T) {
	// Width 0 makes both modes point masses; the quantile must still
	// partition the probability space between them.
	d, err := NewBimodal(0.3, 0.8, 0.25, 0)
	if err != nil {
		t.Fatal(err)
	}
	if q := d.Quantile(0.5); q != 0.3 {
		t.Errorf("Quantile(0.5) = %v, want 0.3", q)
	}
	if q := d.Quantile(0.9); q != 0.8 {
		t.Errorf("Quantile(0.9) = %v, want 0.8", q)
	}
	// HiProb 1 routes everything to the high mode.
	d2, err := NewBimodal(0.3, 0.8, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if q := d2.Quantile(0.1); q != 0.8 {
		t.Errorf("HiProb=1: Quantile(0.1) = %v, want 0.8", q)
	}
}

func TestNewBimodalRejectsBadParams(t *testing.T) {
	for _, c := range []struct{ lo, hi, p, w float64 }{
		{0, 0.5, 0.1, 0.05}, {0.5, 1.1, 0.1, 0.05}, {0.8, 0.2, 0.1, 0.05},
		{0.2, 0.8, -0.1, 0.05}, {0.2, 0.8, 1.1, 0.05}, {0.2, 0.8, 0.5, 0.6},
		{math.NaN(), 0.8, 0.5, 0.05}, {0.2, 0.8, 0.5, math.NaN()},
	} {
		if _, err := NewBimodal(c.lo, c.hi, c.p, c.w); err == nil {
			t.Errorf("NewBimodal(%v,%v,%v,%v): want error", c.lo, c.hi, c.p, c.w)
		}
	}
}

func TestHistogramQuantileCDF(t *testing.T) {
	// Four equal-width bins with weights 1,0,0,3: 25% of mass in
	// (0, .25], 75% in (.75, 1].
	d, err := NewHistogram([]float64{1, 0, 0, 3})
	if err != nil {
		t.Fatal(err)
	}
	if q := d.Quantile(0.125); math.Abs(q-0.125) > 1e-12 {
		t.Errorf("Quantile(0.125) = %v, want 0.125", q)
	}
	if q := d.Quantile(0.5); q < 0.75 || q > 1 {
		t.Errorf("Quantile(0.5) = %v, want in high bin", q)
	}
	want := (1*0.125 + 3*0.875) / 4
	if got := d.Mean(); math.Abs(got-want) > 1e-12 {
		t.Errorf("Mean() = %v, want %v", got, want)
	}
	for _, p := range []float64{0.1, 0.25, 0.5, 0.9} {
		x := d.Quantile(p)
		if got := d.CDF(x); math.Abs(got-p) > 1e-9 {
			t.Errorf("CDF(Quantile(%v)) = %v", p, got)
		}
	}
}

func TestNewHistogramRejectsBadWeights(t *testing.T) {
	cases := [][]float64{
		nil,
		{},
		{0, 0},
		{-1, 2},
		{math.NaN()},
		{math.Inf(1)},
		make([]float64, maxHistBins+1),
	}
	cases[len(cases)-1][0] = 1 // over-long but otherwise valid
	for _, ws := range cases {
		if _, err := NewHistogram(ws); err == nil {
			t.Errorf("NewHistogram(%v): want error", ws)
		}
	}
}

func TestDistExecDeterministicAndOrderIndependent(t *testing.T) {
	d, _ := NewBeta(2, 5)
	m := DistExec{D: d, Seed: 42}
	// Same key, same draw — regardless of everything drawn in between.
	a := m.Cycles(3, 7, 10)
	for i := 0; i < 100; i++ {
		_ = m.Cycles(i, i*3, 5)
	}
	if b := m.Cycles(3, 7, 10); b != a {
		t.Fatalf("draw depends on call order: %v then %v", a, b)
	}
	// Different seeds decorrelate.
	m2 := DistExec{D: d, Seed: 43}
	if m2.Cycles(3, 7, 10) == a {
		t.Fatalf("seed 42 and 43 gave the identical draw")
	}
	// Support: (0, wcet] for a spread of keys.
	for ti := 0; ti < 8; ti++ {
		for inv := 0; inv < 64; inv++ {
			c := m.Cycles(ti, inv, 10)
			if !(c > 0) || c > 10 {
				t.Fatalf("Cycles(%d,%d) = %v outside (0, 10]", ti, inv, c)
			}
		}
	}
}

func TestDistExecMatchesDistributionStatistics(t *testing.T) {
	// The empirical mean over many keyed draws approaches the
	// distribution mean (inverse-CDF sampling is unbiased).
	d, _ := NewBeta(2, 2)
	m := DistExec{D: d, Seed: 7}
	var sum float64
	const n = 4000
	for inv := 0; inv < n; inv++ {
		sum += m.Cycles(0, inv, 1)
	}
	if got, want := sum/n, d.Mean(); math.Abs(got-want) > 0.02 {
		t.Fatalf("empirical mean %v, distribution mean %v", got, want)
	}
}

func TestParseExecDistributions(t *testing.T) {
	for _, spec := range []string{"beta=2,5", "bimodal=0.2,0.9,0.1", "hist=1,2,3"} {
		m, err := ParseExec(spec, 11)
		if err != nil {
			t.Fatalf("ParseExec(%q): %v", spec, err)
		}
		if got := m.String(); got != spec {
			t.Errorf("ParseExec(%q).String() = %q", spec, got)
		}
		if _, ok := m.(Distributions); !ok {
			t.Errorf("ParseExec(%q) does not expose Distributions", spec)
		}
		if c := m.Cycles(0, 0, 10); !(c > 0) || c > 10 {
			t.Errorf("ParseExec(%q).Cycles = %v outside (0, 10]", spec, c)
		}
	}
	for _, spec := range []string{
		"beta=", "beta=1", "beta=0,1", "beta=1,2,3", "beta=x,y",
		"bimodal=0.2,0.9", "bimodal=2,3,4", "hist=", "hist=0,0", "hist=a",
	} {
		if _, err := ParseExec(spec, 0); err == nil {
			t.Errorf("ParseExec(%q): want error", spec)
		}
	}
}

func TestPartialMeanFrac(t *testing.T) {
	// For uniform (Beta(1,1)): E[min(X, b)] = b − b²/2.
	d, _ := NewBeta(1, 1)
	for _, b := range []float64{0.25, 0.5, 0.75, 1} {
		want := b - b*b/2
		if got := partialMeanFrac(d, b); math.Abs(got-want) > 1e-3 {
			t.Errorf("partialMeanFrac(U, %v) = %v, want %v", b, got, want)
		}
	}
	if got := partialMeanFrac(d, 0); got != 0 {
		t.Errorf("partialMeanFrac(U, 0) = %v", got)
	}
}

func TestOptimalBudgetPrefersQuantileReservation(t *testing.T) {
	// A strongly low-skewed demand on a multi-point machine: reserving
	// near the common case must beat the worst-case reservation.
	m := machine.Machine1()
	d, _ := NewBeta(2, 8) // mean 0.2, p99 well under 0.7
	plan := OptimalBudget(d, 10, 40, 0.3, m)
	full := OptimalBudget(nil, 10, 40, 0.3, m)
	if plan.Budget >= full.Budget {
		t.Fatalf("skewed demand kept the full reservation: %+v", plan)
	}
	if !(plan.Budget > 0) || plan.Budget > 10 {
		t.Fatalf("budget %v outside (0, wcet]", plan.Budget)
	}
	if plan.Energy <= 0 {
		t.Fatalf("plan energy %v not positive", plan.Energy)
	}
}

func TestOptimalBudgetFallsBackToWorstCase(t *testing.T) {
	m := machine.Machine1()
	// Demand pinned at the worst case: no budget below WCET helps.
	d, _ := NewBeta(50, 1) // mass near 1
	plan := OptimalBudget(d, 10, 40, 0.0, m)
	if plan.Budget != 10 {
		t.Fatalf("near-WCET demand should reserve the worst case, got %+v", plan)
	}
	// Nil distribution and degenerate inputs: full reservation.
	for _, plan := range []BudgetPlan{
		OptimalBudget(nil, 10, 40, 0, m),
		OptimalBudget(d, 0, 40, 0, m),
		OptimalBudget(d, 10, 0, 0, m),
		OptimalBudget(d, 10, 40, -1, m),
		OptimalBudget(d, 10, 40, 0, nil),
	} {
		if plan.Budget != 10 && plan.Budget != 0 {
			t.Fatalf("degenerate input gave partial budget %+v", plan)
		}
	}
}

func TestOptimalBudgetRespectsRestUtilization(t *testing.T) {
	// With the rest of the set loading the processor heavily, low grid
	// points are out of reach and the budget can only sit higher (or at
	// the worst case).
	m := machine.Machine1()
	d, _ := NewBeta(2, 8)
	light := OptimalBudget(d, 10, 40, 0.0, m)
	heavy := OptimalBudget(d, 10, 40, 0.7, m)
	if heavy.Freq < light.Freq {
		t.Fatalf("heavier rest utilization selected a lower frequency: light=%+v heavy=%+v", light, heavy)
	}
}

func TestDistStrings(t *testing.T) {
	d1, _ := NewBeta(2, 5)
	d2, _ := NewBimodal(0.2, 0.9, 0.1, 0.05)
	d3, _ := NewHistogram([]float64{1, 2})
	for _, c := range []struct {
		d    Dist
		want string
	}{
		{d1, "beta=2,5"}, {d2, "bimodal=0.2,0.9,0.1"}, {d3, "hist=1,2"},
	} {
		if got := c.d.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

// FuzzDistributionSampler asserts the keyed sampler's hard contract: for
// any seed, key and accepted distribution parameters, a sampled demand
// is finite, strictly positive and never exceeds the worst case.
func FuzzDistributionSampler(f *testing.F) {
	f.Add(int64(1), uint8(0), 2.0, 5.0, 0.1, 3, 7, 10.0)
	f.Add(int64(-9), uint8(1), 0.2, 0.9, 0.5, 0, 0, 1.0)
	f.Add(int64(1<<40), uint8(2), 1.0, 2.0, 3.0, 100, 100000, 0.001)
	f.Add(int64(0), uint8(0), 0.5, 0.5, 0.0, -1, -1, 5.0)
	f.Fuzz(func(t *testing.T, seed int64, kind uint8, a, b, c float64, ti, inv int, wcet float64) {
		if !(wcet > 0) || math.IsInf(wcet, 0) || wcet > 1e12 {
			t.Skip()
		}
		var d Dist
		var err error
		switch kind % 3 {
		case 0:
			d, err = NewBeta(a, b)
		case 1:
			d, err = NewBimodal(a, b, clamp01(c), 0.05)
		case 2:
			d, err = NewHistogram([]float64{abs1e6(a), abs1e6(b), abs1e6(c)})
		}
		if err != nil {
			t.Skip() // constructor rejected the params: nothing to sample
		}
		m := DistExec{D: d, Seed: seed}
		got := m.Cycles(ti, inv, wcet)
		if math.IsNaN(got) || math.IsInf(got, 0) {
			t.Fatalf("%s: Cycles(%d,%d,%v) = %v", d, ti, inv, wcet, got)
		}
		if !(got > 0) || got > wcet {
			t.Fatalf("%s: Cycles(%d,%d,%v) = %v outside (0, wcet]", d, ti, inv, wcet, got)
		}
	})
}

func clamp01(v float64) float64 {
	if math.IsNaN(v) || v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

func abs1e6(v float64) float64 {
	v = math.Abs(v)
	if math.IsNaN(v) || v > 1e6 {
		return 1
	}
	return v
}

func TestDistSpecRoundTripThroughParse(t *testing.T) {
	// Every distribution's String() is re-parseable to an equal model.
	for _, spec := range []string{"beta=2,5", "bimodal=0.25,0.75,0.2", "hist=1,0,2"} {
		m1, err := ParseExec(spec, 5)
		if err != nil {
			t.Fatal(err)
		}
		m2, err := ParseExec(m1.String(), 5)
		if err != nil {
			t.Fatalf("re-parse %q: %v", m1.String(), err)
		}
		for inv := 0; inv < 16; inv++ {
			if a, b := m1.Cycles(1, inv, 7), m2.Cycles(1, inv, 7); a != b {
				t.Fatalf("%q: round-trip draw differs at inv %d: %v vs %v", spec, inv, a, b)
			}
		}
		if !strings.Contains(m1.String(), "=") {
			t.Fatalf("spec %q lost parse syntax", m1.String())
		}
	}
}
