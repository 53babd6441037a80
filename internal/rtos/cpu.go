package rtos

import (
	"fmt"

	"rtdvs/internal/machine"
)

// CPU models the DVS-capable processor device: the PowerNow!-style
// interface of Section 4.1. Software selects an operating point; the
// hardware imposes a mandatory stop interval (programmable in multiples of
// 41 µs on the K6-2+) during which the processor halts while the clock and
// supply voltage stabilize. The device integrates its own energy use.
type CPU struct {
	spec     *machine.Spec
	overhead machine.SwitchOverhead
	point    machine.OperatingPoint

	execEnergy float64 // cycle·V² units
	idleEnergy float64
	cycles     float64
	busyTime   float64
	idleTime   float64
	haltTime   float64
	switches   int
}

// NewCPU creates a CPU at the platform's maximum point (the reset state).
func NewCPU(spec *machine.Spec, overhead machine.SwitchOverhead) (*CPU, error) {
	if spec == nil {
		return nil, fmt.Errorf("rtos: nil machine spec")
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &CPU{spec: spec, overhead: overhead, point: spec.Max()}, nil
}

// Spec returns the platform specification.
func (c *CPU) Spec() *machine.Spec { return c.spec }

// Point returns the current operating point.
func (c *CPU) Point() machine.OperatingPoint { return c.point }

// SetPoint moves the processor to the given operating point and returns
// the mandatory stop interval the caller must let elapse (0 when the
// point is unchanged). Every transition completes.
// The processor consumes no energy while halted for the transition
// (Section 3.1); the caller accounts the elapsed halt time with
// AccountHalt as virtual time advances, so a stop interval can span
// scheduling boundaries without double counting.
func (c *CPU) SetPoint(op machine.OperatingPoint) float64 {
	if op == c.point {
		return 0
	}
	halt := c.overhead.Halt(c.point, op)
	c.point = op
	c.switches++
	return halt
}

// AccountHalt records dur milliseconds actually spent inside a
// transition stop interval.
func (c *CPU) AccountHalt(dur float64) {
	if dur > 0 {
		c.haltTime += dur
	}
}

// Execute runs the processor for dur milliseconds of wall time at the
// current point and returns the cycles retired.
func (c *CPU) Execute(dur float64) float64 {
	cycles := dur * c.point.Freq
	c.cycles += cycles
	c.execEnergy += cycles * c.point.EnergyPerCycle()
	c.busyTime += dur
	return cycles
}

// Idle halts the processor for dur milliseconds at the current point,
// charging the platform's idle-level energy.
func (c *CPU) Idle(dur float64) {
	c.idleEnergy += c.spec.IdlePower(c.point) * dur
	c.idleTime += dur
}

// Energy returns the total energy consumed so far, in cycle·V² units.
func (c *CPU) Energy() float64 { return c.execEnergy + c.idleEnergy }

// Cycles returns the total cycles retired.
func (c *CPU) Cycles() float64 { return c.cycles }

// Switches returns the number of operating point transitions.
func (c *CPU) Switches() int { return c.switches }

// Denied returns the number of refused transition requests: always 0,
// for every transition completes. It stays because the system
// benchmark's kernel outcome reports it.
func (c *CPU) Denied() int { return 0 }

// HaltTime returns the total time spent in transition stop intervals.
func (c *CPU) HaltTime() float64 { return c.haltTime }

// BusyTime returns total execution time.
func (c *CPU) BusyTime() float64 { return c.busyTime }

// IdleTime returns total halted (non-transition) time.
func (c *CPU) IdleTime() float64 { return c.idleTime }

// PowerMeter is the oscilloscope-and-current-probe of Figure 15: it
// observes whole-system power (CPU device plus the constant baseline from
// the component model) averaged over a measurement window, the way the
// authors averaged 15–30 s acquisitions.
type PowerMeter struct {
	cpu      *CPU
	sys      SystemPower
	screenOn bool
	diskSpin bool
	// wattsPerUnit converts the CPU's cycle·V² energy units into watts,
	// calibrated so continuous full-speed execution draws CPUMaxW−CPUIdleW.
	wattsPerUnit float64

	markTime   float64
	markEnergy float64
}

// NewPowerMeter attaches a meter to a CPU with the given peripheral
// states.
func NewPowerMeter(cpu *CPU, sys SystemPower, screenOn, diskSpinning bool) *PowerMeter {
	maxUnitPower := cpu.spec.Max().Power() // units per ms at full speed
	return &PowerMeter{
		cpu:          cpu,
		sys:          sys,
		screenOn:     screenOn,
		diskSpin:     diskSpinning,
		wattsPerUnit: (sys.CPUMaxW - sys.CPUIdleW) / maxUnitPower,
	}
}

// Mark starts a new measurement window at virtual time now.
func (m *PowerMeter) Mark(now float64) {
	m.markTime = now
	m.markEnergy = m.cpu.Energy()
}

// Average returns the mean system power in watts over [mark, now].
func (m *PowerMeter) Average(now float64) float64 {
	dt := now - m.markTime
	if dt <= 0 {
		return m.sys.Baseline(m.screenOn, m.diskSpin)
	}
	cpuDyn := (m.cpu.Energy() - m.markEnergy) / dt * m.wattsPerUnit
	return m.sys.Baseline(m.screenOn, m.diskSpin) + cpuDyn
}

// CPUOnlyAverage returns the mean CPU dynamic power in the simulator's
// native units over [mark, now] — the quantity Figure 17 plots.
func (m *PowerMeter) CPUOnlyAverage(now float64) float64 {
	dt := now - m.markTime
	if dt <= 0 {
		return 0
	}
	return (m.cpu.Energy() - m.markEnergy) / dt
}
