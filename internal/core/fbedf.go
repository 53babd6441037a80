package core

import (
	"fmt"

	"rtdvs/internal/machine"
	"rtdvs/internal/sched"
	"rtdvs/internal/task"
)

// fbEDF is the feedback-controlled RT-DVS policy, after Xia et al.'s
// control-theoretic DVS for embedded controllers: instead of deriving
// the operating frequency from declared worst cases (which sustained
// overruns falsify), it *closes the loop* on the observed system.
//
// Two signals are measured online:
//
//   - a feedforward utilization estimate û_i per task — an exponentially
//     weighted average of actual consumed utilization, initialized at
//     the declared C_i/P_i — whose sum sets the controller's operating
//     point under nominal conditions, and
//   - an exponentially weighted miss rate m̂ (misses per release),
//     observed structurally: a release that finds the previous
//     invocation still in flight is a missed deadline.
//
// A PID controller on the error e = m̂ − setpoint adds a non-negative
// utilization correction on top of the feedforward term:
//
//	out = clamp₀¹( Kp·e + Ki·Σe + Kd·Δe ),   f = grid(Σû_i + out)
//
// with two standard protections: the output is clamped onto the discrete
// frequency grid (saturating at f_max), and the integrator uses
// conditional anti-windup — it stops accumulating while the actuator is
// pinned at a limit in the direction of the error, so a long overload
// burst does not wind up hours of corrective backlog that would hold
// f_max long after the overload ends.
//
// The guarantee is a steady-state one — the miss rate converges to the
// setpoint under persistent overload instead of collapsing — never a
// per-deadline guarantee, so Guaranteed() is always false.
type fbEDF struct {
	base
	setpoint float64 // target miss rate (misses per release)
	kp       float64 // proportional gain
	ki       float64 // integral gain (per release sample)
	kd       float64 // derivative gain
	alpha    float64 // miss-rate EWMA smoothing
	ewma     float64 // per-task utilization EWMA smoothing

	inFlight []bool    // invocation released but not completed, per task
	uhat     []float64 // û_i, observed utilization per task
	sum      float64   // running Σû_i (feedforward term)
	missEW   float64   // m̂, observed miss rate per release
	integ    float64   // PID integral state (anti-windup clamped)
	prevErr  float64   // previous error sample (derivative term)
	out      float64   // last PID correction, in [0, 1]
	misses   int       // structural misses observed since Attach
}

// Default fbEDF controller parameters. The gains are expressed in
// utilization per unit of miss-rate error; they were tuned on the
// robustness sweep's workloads (8 tasks, U≈0.45, factor-1.5..2 overruns)
// for fast recovery without oscillation at the default setpoint.
const (
	fbDefaultSetpoint = 0.05
	fbKp              = 8.0
	fbKi              = 1.5
	fbKd              = 4.0
	fbAlpha           = 0.08 // ~12-release miss-rate memory
	fbEWMA            = 0.25 // per-task utilization estimator memory
)

// FeedbackEDF returns the fbEDF policy tracking the given miss-rate
// setpoint (misses per release, in (0, 1)).
func FeedbackEDF(setpoint float64) (Policy, error) {
	if !(setpoint > 0 && setpoint < 1) {
		return nil, fmt.Errorf("core: fbEDF setpoint %v outside (0, 1)", setpoint)
	}
	return &fbEDF{setpoint: setpoint, kp: fbKp, ki: fbKi, kd: fbKd, alpha: fbAlpha, ewma: fbEWMA}, nil
}

func (p *fbEDF) Name() string          { return "fbEDF" }
func (p *fbEDF) Scheduler() sched.Kind { return sched.EDF }

// Setpoint returns the controller's target miss rate.
func (p *fbEDF) Setpoint() float64 { return p.setpoint }

// MissesObserved returns the structural misses (release with the prior
// invocation still in flight) the controller has counted since Attach.
func (p *fbEDF) MissesObserved() int { return p.misses }

func (p *fbEDF) Attach(ts *task.Set, m *machine.Spec) error {
	if err := p.attach(ts, m); err != nil {
		return err
	}
	// The loop tracks a *rate* setpoint; individual deadlines carry no
	// guarantee by construction.
	p.guaranteed = false
	n := ts.Len()
	p.inFlight = growZeroed(p.inFlight, n)
	p.uhat = growZeroed(p.uhat, n)
	p.sum = 0
	for i := 0; i < n; i++ {
		// Start from the declared worst case: the estimator can only
		// learn downward from what admission was promised.
		p.uhat[i] = ts.Task(i).Utilization()
		p.sum += p.uhat[i]
	}
	p.missEW, p.integ, p.prevErr, p.out = 0, 0, 0, 0
	p.misses = 0
	p.setLowestAtLeast(p.sum)
	return nil
}

// fbIntegMax bounds the integral state so Ki·integ alone can request at
// most one full unit of utilization correction.
const fbIntegMax = 1.0 / fbKi

// control runs one PID sample: fold the miss observation into m̂, update
// the three terms with conditional anti-windup, clamp the correction to
// [0, 1], and re-select the grid point covering feedforward+correction.
//
//rtdvs:hotpath
func (p *fbEDF) control(missed bool) {
	m := 0.0
	if missed {
		m = 1
		p.misses++
	}
	p.missEW += p.alpha * (m - p.missEW)
	err := p.missEW - p.setpoint
	deriv := err - p.prevErr
	p.prevErr = err

	// Conditional anti-windup: freeze the integrator while the actuator
	// is saturated in the error's direction (pinned at f_max with the
	// loop asking for more speed, or at zero correction asking for less).
	satHigh := p.sum+p.out >= p.m.Max().Freq
	satLow := p.out <= 0
	if !(err > 0 && satHigh) && !(err < 0 && satLow) {
		p.integ += err
		if p.integ < 0 {
			p.integ = 0
		} else if p.integ > fbIntegMax {
			p.integ = fbIntegMax
		}
	}

	out := p.kp*err + p.ki*p.integ + p.kd*deriv
	if out < 0 {
		out = 0
	} else if out > 1 {
		out = 1
	}
	p.out = out
	p.setLowestAtLeast(p.sum + p.out)
}

// OnRelease is the controller's sampling instant: one miss observation
// per release keeps the sample rate proportional to system activity.
//
//rtdvs:hotpath
func (p *fbEDF) OnRelease(_ System, i int) {
	missed := p.inFlight[i]
	p.inFlight[i] = true
	p.control(missed)
}

//rtdvs:hotpath
func (p *fbEDF) OnCompletion(_ System, i int, used float64) {
	p.inFlight[i] = false
	delta := p.ewma * (used/p.tp[i].period - p.uhat[i])
	p.uhat[i] += delta
	p.sum += delta
	p.setLowestAtLeast(p.sum + p.out)
}

func (p *fbEDF) OnExecute(int, float64) {}

// IdlePoint drops to the platform minimum while halted (dynamic scheme).
func (p *fbEDF) IdlePoint() machine.OperatingPoint { return p.m.Min() }
