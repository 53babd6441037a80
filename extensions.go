package rtdvs

import (
	"rtdvs/internal/core"
	"rtdvs/internal/platform"
	"rtdvs/internal/rtos"
	"rtdvs/internal/yds"
)

// Extensions beyond the paper's Table 4 policies: the average-throughput
// baseline it argues against, the statistical-guarantee direction its
// conclusion proposes, richer aperiodic service, kernel tracing, and the
// physical models (battery, thermal) that motivate the work.

// IntervalDVS returns the Weiser-style average-throughput governor: it
// retunes the frequency every window (ms) to serve the observed load at
// the target busy fraction, with no deadline awareness. It exists as the
// quantitative baseline for the paper's Section 2.2 argument.
func IntervalDVS(windowMs, target float64) (Policy, error) {
	return core.IntervalDVS(windowMs, target)
}

// StatisticalEDF returns the stEDF extension: like ccEDF, but fresh
// invocations reserve only the learned q-th quantile of their actual
// demand (worst case restored instantly on overrun). Deadline guarantees
// become statistical; energy drops below ccEDF when demand is usually far
// under the worst case.
func StatisticalEDF(q float64) (Policy, error) { return core.StatisticalEDF(q) }

// PhaseRobustPolicy marks policies whose deadline guarantee holds for
// arbitrary release phasing (none, staticEDF/staticRM, ccEDF). The
// kernel's smart admission (Kernel.TryAddImmediate) releases new tasks
// immediately only under such a policy.
type PhaseRobustPolicy = core.PhaseRobustPolicy

// NewExtendedPolicy resolves both the paper policies and the extensions
// ("interval" with a 20 ms window and 0.7 target, "stEDF" at the 95th
// percentile).
func NewExtendedPolicy(name string) (Policy, error) { return core.ExtendedByName(name) }

// ExtendedPolicyNames lists every available policy name.
func ExtendedPolicyNames() []string { return core.ExtendedNames() }

// DeferrableServer preserves its budget across the period, serving
// aperiodic jobs the moment they arrive while budget remains.
type DeferrableServer = rtos.DeferrableServer

// NewDeferrableServer registers a deferrable server with the kernel.
func NewDeferrableServer(k *Kernel, name string, period, budget float64) (*DeferrableServer, error) {
	return rtos.NewDeferrableServer(k, name, period, budget)
}

// AperiodicWorkload generates Poisson-arrival job traces for server
// evaluation.
type AperiodicWorkload = rtos.AperiodicWorkload

// Arrival is one job of an aperiodic workload trace.
type Arrival = rtos.Arrival

// JobSink is the submission interface shared by both servers.
type JobSink = rtos.JobSink

// ReplayAperiodic feeds a workload trace into a server and returns the
// mean response time of the completed jobs. It refuses, before stepping
// the kernel, a horizon that is not finite and an arrival whose time is
// not finite, is earlier than the arrival before it (or, for the first,
// than the kernel's Now), or is past the horizon.
func ReplayAperiodic(k *Kernel, sink JobSink, arrivals []Arrival, horizon float64) (float64, error) {
	return rtos.Replay(k, sink, arrivals, horizon)
}

// EventLog is the kernel's bounded trace buffer.
type EventLog = rtos.EventLog

// Event is one kernel trace record.
type Event = rtos.Event

// NewEventLog creates a trace buffer holding up to capacity events.
func NewEventLog(capacity int) *EventLog { return rtos.NewEventLog(capacity) }

// Battery models a battery pack with load-dependent conversion losses.
type Battery = platform.Battery

// NewBattery returns a lithium-like battery of the given watt-hour
// capacity.
func NewBattery(capacityWh float64) (*Battery, error) { return platform.NewBattery(capacityWh) }

// Thermal is a lumped RC thermal model of the processor package.
type Thermal = platform.Thermal

// NewThermal returns a thermal model at the given ambient temperature
// (°C), junction-to-ambient resistance (°C/W) and time constant (ms).
func NewThermal(ambientC, rTheta, tauMs float64) (*Thermal, error) {
	return platform.NewThermal(ambientC, rTheta, tauMs)
}

// ClairvoyantBound returns the minimum energy any schedule — even one
// knowing every invocation's actual demand in advance — needs to meet
// all deadlines of the task set up to the horizon (Yao–Demers–Shenker).
// It is at least the throughput-only LowerBound and is the fair yardstick
// for the online policies.
func ClairvoyantBound(spec *MachineSpec, ts *TaskSet, exec ExecModel, horizon float64) (float64, error) {
	return yds.LowerBound(spec, ts, exec, horizon)
}
