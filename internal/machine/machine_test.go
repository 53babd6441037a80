package machine

import (
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestOperatingPointEnergyAndPower(t *testing.T) {
	op := OperatingPoint{Freq: 0.5, Voltage: 3}
	if got := op.EnergyPerCycle(); got != 9 {
		t.Errorf("EnergyPerCycle = %v, want 9", got)
	}
	if got := op.Power(); got != 4.5 {
		t.Errorf("Power = %v, want 4.5", got)
	}
}

func TestOperatingPointString(t *testing.T) {
	op := OperatingPoint{Freq: 0.75, Voltage: 4}
	if got := op.String(); got != "0.75@4V" {
		t.Errorf("String = %q", got)
	}
}

func TestSpecValidateAcceptsPredefined(t *testing.T) {
	for _, name := range Names() {
		spec := ByName(name)
		if spec == nil {
			t.Fatalf("ByName(%q) = nil", name)
		}
		if err := spec.Validate(); err != nil {
			t.Errorf("%s: Validate() = %v", name, err)
		}
		if spec.Max().Freq != 1.0 {
			t.Errorf("%s: max freq = %v, want 1.0", name, spec.Max().Freq)
		}
	}
}

func TestSpecValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		want error
	}{
		{"empty", Spec{}, ErrNoPoints},
		{"unsorted", Spec{Points: []OperatingPoint{{0.8, 4}, {0.5, 3}, {1, 5}}}, ErrUnsortedPoints},
		{"duplicate freq", Spec{Points: []OperatingPoint{{0.5, 3}, {0.5, 4}, {1, 5}}}, ErrUnsortedPoints},
		{"zero freq", Spec{Points: []OperatingPoint{{0, 3}, {1, 5}}}, ErrBadFrequency},
		{"freq above 1", Spec{Points: []OperatingPoint{{0.5, 3}, {1.5, 5}}}, ErrBadFrequency},
		{"max below 1", Spec{Points: []OperatingPoint{{0.5, 3}, {0.9, 5}}}, ErrBadFrequency},
		{"zero voltage", Spec{Points: []OperatingPoint{{0.5, 0}, {1, 5}}}, ErrBadVoltage},
		{"voltage drops", Spec{Points: []OperatingPoint{{0.5, 5}, {1, 3}}}, ErrBadVoltage},
		{"idle too high", Spec{IdleLevel: 1.5, Points: []OperatingPoint{{1, 5}}}, ErrBadIdleLevel},
		{"idle negative", Spec{IdleLevel: -0.1, Points: []OperatingPoint{{1, 5}}}, ErrBadIdleLevel},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.spec.Validate()
			if err == nil {
				t.Fatal("Validate() = nil, want error")
			}
			if c.want != nil && !strings.Contains(err.Error(), c.want.Error()) {
				t.Errorf("Validate() = %v, want wrapping %v", err, c.want)
			}
		})
	}
}

func TestLowestAtLeast(t *testing.T) {
	m := Machine0()
	cases := []struct {
		req  float64
		want float64
	}{
		{-1, 0.5}, {0, 0.5}, {0.1, 0.5}, {0.5, 0.5},
		{0.50000000001, 0.5}, // within tolerance
		{0.51, 0.75}, {0.75, 0.75}, {0.76, 1.0}, {1.0, 1.0},
	}
	for _, c := range cases {
		op, err := m.LowestAtLeast(c.req)
		if err != nil {
			t.Errorf("LowestAtLeast(%v) error: %v", c.req, err)
		}
		if op.Freq != c.want {
			t.Errorf("LowestAtLeast(%v) = %v, want %v", c.req, op.Freq, c.want)
		}
	}
}

func TestLowestAtLeastUnreachable(t *testing.T) {
	m := Machine0()
	op, err := m.LowestAtLeast(1.2)
	if err == nil {
		t.Fatal("want error for unreachable frequency")
	}
	if op != m.Max() {
		t.Errorf("saturation point = %v, want max %v", op, m.Max())
	}
}

// LowestAtLeast must return the lowest point satisfying the request, for
// any request within range.
func TestLowestAtLeastProperty(t *testing.T) {
	m := Machine2()
	f := func(raw float64) bool {
		req := math.Mod(math.Abs(raw), 1.0)
		op, err := m.LowestAtLeast(req)
		if err != nil {
			return false
		}
		if op.Freq+1e-9 < req {
			return false // must satisfy the request
		}
		for _, p := range m.Points {
			if p.Freq+1e-9 >= req && p.Freq < op.Freq {
				return false // a lower point would have sufficed
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// The cached selector must agree with LowestAtLeast for every spec and
// any request, including saturation, and must not allocate.
func TestSelectorMatchesLowestAtLeast(t *testing.T) {
	for _, name := range Names() {
		spec := ByName(name)
		sel := spec.Selector()
		f := func(raw float64) bool {
			req := math.Mod(math.Abs(raw), 1.5) // cover unreachable too
			op, ok := sel.AtLeast(req)
			want, err := spec.LowestAtLeast(req)
			return op == want && ok == (err == nil)
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		sweeps := testing.AllocsPerRun(100, func() {
			for _, req := range []float64{0, 0.3, 0.6, 0.9, 1, 1.2} {
				sel.AtLeast(req)
			}
		})
		if sweeps != 0 {
			t.Errorf("%s: AtLeast allocates %.1f times per sweep", name, sweeps)
		}
	}
}

func TestIdlePower(t *testing.T) {
	m := Machine0().WithIdleLevel(0.5)
	op := m.Min() // 0.5 @ 3V: power 4.5
	if got := m.IdlePower(op); math.Abs(got-2.25) > 1e-12 {
		t.Errorf("IdlePower = %v, want 2.25", got)
	}
	if got := Machine0().IdlePower(op); got != 0 {
		t.Errorf("perfect halt IdlePower = %v, want 0", got)
	}
}

func TestWithIdleLevelDoesNotAliasPoints(t *testing.T) {
	a := Machine0()
	b := a.WithIdleLevel(0.3)
	b.Points[0].Voltage = 99
	if a.Points[0].Voltage == 99 {
		t.Error("WithIdleLevel shares the points slice with the original")
	}
	if b.IdleLevel != 0.3 || a.IdleLevel != 0 {
		t.Errorf("idle levels: a=%v b=%v", a.IdleLevel, b.IdleLevel)
	}
}

func TestFrequencies(t *testing.T) {
	fs := Machine1().Frequencies()
	want := []float64{0.5, 0.75, 0.83, 1.0}
	if len(fs) != len(want) {
		t.Fatalf("got %d frequencies, want %d", len(fs), len(want))
	}
	for i := range fs {
		if fs[i] != want[i] {
			t.Errorf("freq[%d] = %v, want %v", i, fs[i], want[i])
		}
	}
}

func TestLaptopK62Spec(t *testing.T) {
	m := LaptopK62()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(m.Points) != 7 {
		t.Fatalf("K6-2+ has %d points, want 7 (200–550 MHz skipping 250)", len(m.Points))
	}
	// Only two voltage levels: 1.4 V up to 450 MHz, 2.0 V above.
	for _, p := range m.Points {
		wantV := 1.4
		if p.Freq > 450.0/550.0+1e-9 {
			wantV = 2.0
		}
		if p.Voltage != wantV {
			t.Errorf("point %v: voltage %v, want %v", p.Freq, p.Voltage, wantV)
		}
	}
	if m.Min().Freq < 0.36 || m.Min().Freq > 0.37 {
		t.Errorf("min freq = %v, want 200/550", m.Min().Freq)
	}
}

func TestByNameUnknown(t *testing.T) {
	if ByName("pentium") != nil {
		t.Error("ByName(pentium) should be nil")
	}
}

func TestSwitchOverheadHalt(t *testing.T) {
	o := K62SwitchOverhead
	m := LaptopK62()
	lo, hi := m.Min(), m.Max()
	mid := m.Points[2] // 1.4 V like lo
	if got := o.Halt(lo, lo); got != 0 {
		t.Errorf("same-point halt = %v, want 0", got)
	}
	if got := o.Halt(lo, mid); got != 0.041 {
		t.Errorf("frequency-only halt = %v, want 0.041", got)
	}
	if got := o.Halt(lo, hi); got != 0.4 {
		t.Errorf("voltage-change halt = %v, want 0.4", got)
	}
	if got := o.WorstCase(); got != 0.4 {
		t.Errorf("WorstCase = %v, want 0.4", got)
	}
}

// Edge cases of the stop-interval model: the same-point identity, the
// epsilon boundary between frequency-only and voltage-change transitions,
// and WorstCase's consistency with Halt over every reachable pair.
func TestSwitchOverheadEdgeCases(t *testing.T) {
	o := SwitchOverhead{FreqOnly: 0.041, VoltageChange: 0.4}

	// A same-point "transition" costs nothing even when both halt
	// durations are non-zero.
	p := OperatingPoint{Freq: 0.5, Voltage: 3}
	if got := o.Halt(p, p); got != 0 {
		t.Errorf("same-point halt = %v, want 0", got)
	}

	// Voltages equal within the float tolerance classify as
	// frequency-only; beyond it, as a voltage change. The boundary is
	// fpx's epsilon, not exact equality.
	near := OperatingPoint{Freq: 0.75, Voltage: 3 + 1e-12}
	if got := o.Halt(p, near); got != o.FreqOnly {
		t.Errorf("sub-epsilon voltage delta classified as voltage change: halt = %v", got)
	}
	far := OperatingPoint{Freq: 0.75, Voltage: 3 + 1e-6}
	if got := o.Halt(p, far); got != o.VoltageChange {
		t.Errorf("super-epsilon voltage delta classified as frequency-only: halt = %v", got)
	}

	// A pure voltage change (same frequency) is still a voltage change.
	vOnly := OperatingPoint{Freq: 0.5, Voltage: 4}
	if got := o.Halt(p, vOnly); got != o.VoltageChange {
		t.Errorf("voltage-only halt = %v, want %v", got, o.VoltageChange)
	}

	// The zero value models free transitions.
	var free SwitchOverhead
	if free.Halt(p, far) != 0 || free.WorstCase() != 0 {
		t.Error("zero-value overhead should cost nothing")
	}

	// A degenerate calibration where frequency hops cost more than
	// voltage ramps: WorstCase must still bound Halt over every pair of
	// points, and be attained by the worst transition category the spec
	// actually offers (machines 1 and 2 assign a distinct voltage to
	// every point, so frequency-only transitions are unreachable there).
	for _, o := range []SwitchOverhead{
		K62SwitchOverhead,
		{FreqOnly: 0.5, VoltageChange: 0.1},
	} {
		for _, spec := range []*Spec{Machine0(), Machine1(), Machine2(), LaptopK62()} {
			worst, reachable := 0.0, 0.0
			for _, a := range spec.Points {
				for _, b := range spec.Points {
					if a == b {
						continue
					}
					cat := o.FreqOnly
					if a.Voltage != b.Voltage {
						cat = o.VoltageChange
					}
					if cat > reachable {
						reachable = cat
					}
					h := o.Halt(a, b)
					if h > o.WorstCase() {
						t.Errorf("%s: Halt(%v, %v) = %v exceeds WorstCase %v",
							spec.Name, a, b, h, o.WorstCase())
					}
					if h > worst {
						worst = h
					}
				}
			}
			if worst != reachable {
				t.Errorf("%s: worst reachable halt %v, observed %v", spec.Name, reachable, worst)
			}
			if o.WorstCase() < worst {
				t.Errorf("%s: WorstCase %v below observed worst %v", spec.Name, o.WorstCase(), worst)
			}
		}
	}
}

func TestSpecString(t *testing.T) {
	s := Machine0().String()
	for _, want := range []string{"machine0", "0.5@3V", "0.75@4V", "1@5V", "idle=0"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q, missing %q", s, want)
		}
	}
}

// TestCores pins the multi-core surface of the spec: Cores=0 means the
// paper's uniprocessor platform, WithCores deep-copies the point table,
// validation bounds the count, and only true multiprocessors mention
// cores in their fingerprint string.
func TestCores(t *testing.T) {
	m := Machine0()
	if m.NumCores() != 1 {
		t.Errorf("default NumCores = %d, want 1", m.NumCores())
	}
	if s := m.String(); strings.Contains(s, "cores=") {
		t.Errorf("uniprocessor fingerprint %q must not mention cores", s)
	}

	m4 := m.WithCores(4)
	if m4.NumCores() != 4 || m4.Cores != 4 {
		t.Errorf("WithCores(4): NumCores=%d Cores=%d", m4.NumCores(), m4.Cores)
	}
	if m.Cores != 0 {
		t.Error("WithCores mutated the receiver")
	}
	if err := m4.Validate(); err != nil {
		t.Errorf("WithCores(4) spec invalid: %v", err)
	}
	if s := m4.String(); !strings.Contains(s, "cores=4") {
		t.Errorf("multiprocessor fingerprint %q does not mention cores", s)
	}
	// The copy is deep: scaling a point of the copy leaves the original.
	m4.Points[0].Freq *= 0.5
	if m.Points[0].Freq == m4.Points[0].Freq {
		t.Error("WithCores shares the point table with its receiver")
	}

	if err := m.WithCores(1).Validate(); err != nil {
		t.Errorf("cores=1 invalid: %v", err)
	}
	for _, bad := range []int{-1, MaxCores + 1} {
		if err := m.WithCores(bad).Validate(); !errors.Is(err, ErrBadCores) {
			t.Errorf("cores=%d: err = %v, want ErrBadCores", bad, err)
		}
	}
}
