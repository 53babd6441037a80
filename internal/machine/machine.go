// Package machine models DVS-capable processor hardware: the discrete
// table of (frequency, voltage) operating points exposed by the platform,
// the CMOS energy model (energy per cycle proportional to V²), the
// idle-level factor of the halt feature, and the mandatory stop interval
// incurred when switching points.
//
// Frequencies are relative to the maximum (the top point has Freq = 1.0).
// "Cycles" throughout this repository are measured in milliseconds of
// execution at maximum frequency, so a processor running at relative
// frequency f retires f cycles per millisecond of wall time.
package machine

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"rtdvs/internal/fpx"
)

// OperatingPoint is one row of the platform's frequency/voltage table.
type OperatingPoint struct {
	// Freq is the operating frequency relative to the maximum, in (0, 1].
	Freq float64 `json:"freq"`
	// Voltage is the supply voltage required at this frequency, in volts
	// (arbitrary units; only ratios matter for normalized energy).
	Voltage float64 `json:"voltage"`
}

// EnergyPerCycle returns the energy dissipated by one cycle of execution
// at this operating point. CMOS switching energy scales with V² (Burd &
// Brodersen); the constant of proportionality is taken as 1.
func (op OperatingPoint) EnergyPerCycle() float64 {
	return op.Voltage * op.Voltage
}

// Power returns the power drawn while executing continuously at this
// point: f cycles per unit time, each costing V².
func (op OperatingPoint) Power() float64 {
	return op.Freq * op.EnergyPerCycle()
}

// String formats the point as "0.75@4.0V".
func (op OperatingPoint) String() string {
	return fmt.Sprintf("%.3g@%.3gV", op.Freq, op.Voltage)
}

// Spec describes a DVS-capable platform: its operating points sorted by
// ascending frequency, the idle-level factor of its halt feature, and
// the number of identical processor cores.
type Spec struct {
	// Name identifies the platform ("machine0", "k6-2+", ...).
	Name string `json:"name"`
	// Points holds the operating points in strictly ascending frequency
	// order. The last point must have Freq == 1.0.
	Points []OperatingPoint `json:"points"`
	// IdleLevel is the ratio of the energy consumed by a halted cycle to
	// a normal execution cycle (0 = perfect halt, 1 = halt saves nothing).
	IdleLevel float64 `json:"idleLevel"`
	// Cores is the number of identical processor cores sharing this
	// point table (the identical-multiprocessor model of Nélis et al.).
	// 0 is equivalent to 1 — the paper's uniprocessor platform — so
	// every pre-multicore spec keeps its meaning (and its JSON encoding,
	// and with it every checkpoint fingerprint) unchanged.
	Cores int `json:"cores,omitempty"`
}

// MaxCores bounds Spec.Cores: large enough for any plausible embedded
// multiprocessor, small enough that a hostile request cannot make the
// simulator allocate per-core state without bound.
const MaxCores = 64

// NumCores returns the effective core count: Cores, with 0 meaning the
// single-core platform every earlier layer assumed.
func (s *Spec) NumCores() int {
	if s.Cores <= 0 {
		return 1
	}
	return s.Cores
}

// WithCores returns a copy of the spec with the given core count.
func (s *Spec) WithCores(m int) *Spec {
	c := *s
	c.Points = append([]OperatingPoint(nil), s.Points...)
	c.Cores = m
	return &c
}

// Validation errors returned by Spec.Validate.
var (
	ErrNoPoints        = errors.New("machine: spec has no operating points")
	ErrUnsortedPoints  = errors.New("machine: operating points not strictly ascending in frequency")
	ErrBadFrequency    = errors.New("machine: frequencies must lie in (0, 1] with the maximum equal to 1")
	ErrBadVoltage      = errors.New("machine: voltages must be positive and non-decreasing with frequency")
	ErrBadIdleLevel    = errors.New("machine: idle level must lie in [0, 1]")
	ErrBadCores        = errors.New("machine: core count must lie in [0, MaxCores]")
	ErrFreqUnreachable = errors.New("machine: no operating point satisfies the requested frequency")
)

// Validate checks the structural invariants of the spec.
func (s *Spec) Validate() error {
	if len(s.Points) == 0 {
		return ErrNoPoints
	}
	if s.IdleLevel < 0 || s.IdleLevel > 1 {
		return fmt.Errorf("%w: got %v", ErrBadIdleLevel, s.IdleLevel)
	}
	if s.Cores < 0 || s.Cores > MaxCores {
		return fmt.Errorf("%w: got %d", ErrBadCores, s.Cores)
	}
	for i, p := range s.Points {
		if p.Freq <= 0 || p.Freq > 1 {
			return fmt.Errorf("%w: point %d has freq %v", ErrBadFrequency, i, p.Freq)
		}
		if p.Voltage <= 0 {
			return fmt.Errorf("%w: point %d has voltage %v", ErrBadVoltage, i, p.Voltage)
		}
		if i > 0 {
			if p.Freq <= s.Points[i-1].Freq {
				return fmt.Errorf("%w: points %d and %d", ErrUnsortedPoints, i-1, i)
			}
			if p.Voltage < s.Points[i-1].Voltage {
				return fmt.Errorf("%w: voltage drops between points %d and %d", ErrBadVoltage, i-1, i)
			}
		}
	}
	if max := s.Points[len(s.Points)-1].Freq; fpx.Ne(max, 1) {
		return fmt.Errorf("%w: maximum frequency is %v", ErrBadFrequency, max)
	}
	return nil
}

// Min returns the lowest operating point.
func (s *Spec) Min() OperatingPoint { return s.Points[0] }

// Max returns the highest (full-speed) operating point.
func (s *Spec) Max() OperatingPoint { return s.Points[len(s.Points)-1] }

// LowestAtLeast returns the lowest operating point whose frequency is at
// least f (the "use lowest frequency such that the scaled test passes"
// selection of Figure 1). Requests of f <= 0 return the minimum point.
// Requests above the maximum return the maximum and ErrFreqUnreachable;
// callers that must keep running (a policy already committed to a task
// set) saturate at full speed.
func (s *Spec) LowestAtLeast(f float64) (OperatingPoint, error) {
	// The fpx tolerance (inside the selector) keeps exact boundary
	// utilizations (e.g. demand exactly equal to 0.75·capacity) from
	// being bumped a level by floating-point noise.
	op, ok := s.Selector().AtLeast(f)
	if !ok {
		return op, fmt.Errorf("%w: need %v, max is %v", ErrFreqUnreachable, f, s.Max().Freq)
	}
	return op, nil
}

// PointSelector is a precomputed frequency→operating-point step function
// over a spec's static table. The table never changes after construction,
// so selection is a closure-free scan over a handful of points — the
// per-event replacement for Spec.LowestAtLeast on policy hot paths
// (ccEDF/laEDF re-select a point on every release and completion).
type PointSelector struct {
	points []OperatingPoint
}

// Selector returns the spec's cached point selector. The selector
// aliases the spec's table; specs are immutable after construction.
func (s *Spec) Selector() PointSelector {
	return PointSelector{points: s.Points}
}

// AtLeast returns the lowest operating point whose frequency is at least
// f, using the same fpx boundary tolerance as Spec.LowestAtLeast. When
// no point satisfies f it returns the maximum point and ok=false — the
// saturating behavior every policy wants once committed to a task set.
//
//rtdvs:hotpath
func (sel PointSelector) AtLeast(f float64) (op OperatingPoint, ok bool) {
	// Point tables are tiny (3–5 rows), so a branch-predictable linear
	// scan beats binary search and avoids sort.Search's closure call.
	for _, p := range sel.points {
		if fpx.Ge(p.Freq, f) {
			return p, true
		}
	}
	return sel.points[len(sel.points)-1], false
}

// IdlePower returns the power drawn while halted at the given point.
func (s *Spec) IdlePower(op OperatingPoint) float64 {
	return s.IdleLevel * op.Power()
}

// WithIdleLevel returns a copy of the spec with a different idle level.
func (s *Spec) WithIdleLevel(level float64) *Spec {
	c := *s
	c.Points = append([]OperatingPoint(nil), s.Points...)
	c.IdleLevel = level
	return &c
}

// Frequencies returns the frequency column of the table.
func (s *Spec) Frequencies() []float64 {
	fs := make([]float64, len(s.Points))
	for i, p := range s.Points {
		fs[i] = p.Freq
	}
	return fs
}

// String renders the spec as "machine0[0.5@3V 0.75@4V 1@5V idle=0]".
func (s *Spec) String() string {
	var b strings.Builder
	b.WriteString(s.Name)
	b.WriteByte('[')
	for i, p := range s.Points {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(p.String())
	}
	if s.NumCores() > 1 {
		fmt.Fprintf(&b, " idle=%g cores=%d]", s.IdleLevel, s.NumCores())
	} else {
		fmt.Fprintf(&b, " idle=%g]", s.IdleLevel)
	}
	return b.String()
}

// SwitchOverhead models the mandatory stop interval of a voltage/frequency
// transition (Section 4.1: the K6-2+ halts for a programmable multiple of
// 41 µs; the authors used 0.4 ms whenever the voltage changes and 41 µs
// for frequency-only changes). Durations are in milliseconds.
type SwitchOverhead struct {
	// FreqOnly is the halt duration when only the frequency changes.
	FreqOnly float64 `json:"freqOnly"`
	// VoltageChange is the halt duration when the voltage changes.
	VoltageChange float64 `json:"voltageChange"`
}

// K62SwitchOverhead is the overhead measured on the prototype platform.
var K62SwitchOverhead = SwitchOverhead{FreqOnly: 0.041, VoltageChange: 0.4}

// Halt returns the stop interval for a transition from -> to. A
// transition to the same point costs nothing.
func (o SwitchOverhead) Halt(from, to OperatingPoint) float64 {
	switch {
	case from == to:
		return 0
	case fpx.Ne(from.Voltage, to.Voltage):
		return o.VoltageChange
	default:
		return o.FreqOnly
	}
}

// WorstCase returns the largest possible stop interval.
func (o SwitchOverhead) WorstCase() float64 {
	return math.Max(o.FreqOnly, o.VoltageChange)
}
