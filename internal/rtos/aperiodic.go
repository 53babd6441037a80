package rtos

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Arrival is one aperiodic job in a pre-generated workload trace.
type Arrival struct {
	Name   string  `json:"name"`
	Time   float64 `json:"time"`   // arrival time, ms
	Cycles float64 `json:"cycles"` // demand, ms at maximum frequency
}

// AperiodicWorkload generates Poisson-arrival aperiodic job traces for
// evaluating the periodic servers: interarrival times are exponential
// with the given mean, service demands exponential with mean MeanCycles
// (clamped to MaxCycles so a single job cannot exceed a server budget by
// orders of magnitude).
type AperiodicWorkload struct {
	// MeanInterarrival is the mean gap between arrivals, ms.
	MeanInterarrival float64
	// MeanCycles is the mean job demand.
	MeanCycles float64
	// MaxCycles caps individual demands; 0 means 10 × MeanCycles.
	MaxCycles float64
	// Rand is the randomness source; must be non-nil.
	Rand *rand.Rand
}

// Generate draws the arrivals in [0, horizon), sorted by time. The
// horizon must be finite.
func (w *AperiodicWorkload) Generate(horizon float64) ([]Arrival, error) {
	if math.IsNaN(horizon) || math.IsInf(horizon, 0) {
		return nil, fmt.Errorf("rtos: workload horizon must be finite, got %v", horizon)
	}
	if w.MeanInterarrival <= 0 || w.MeanCycles <= 0 {
		return nil, fmt.Errorf("rtos: workload means must be positive (%v, %v)",
			w.MeanInterarrival, w.MeanCycles)
	}
	if w.Rand == nil {
		return nil, fmt.Errorf("rtos: workload needs a rand source")
	}
	maxC := w.MaxCycles
	if maxC <= 0 {
		maxC = 10 * w.MeanCycles
	}
	var out []Arrival
	t := w.Rand.ExpFloat64() * w.MeanInterarrival
	for i := 0; t < horizon; i++ {
		c := math.Min(w.Rand.ExpFloat64()*w.MeanCycles, maxC)
		if c <= 0 {
			c = w.MeanCycles
		}
		out = append(out, Arrival{Name: fmt.Sprintf("job%d", i), Time: t, Cycles: c})
		t += w.Rand.ExpFloat64() * w.MeanInterarrival
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Time < out[b].Time })
	return out, nil
}

// JobSink is the common submission interface of the polling Server and
// the DeferrableServer.
type JobSink interface {
	Submit(name string, cycles float64) (*Job, error)
	Completed() []*Job
	Pending() int
}

var (
	_ JobSink = (*Server)(nil)
	_ JobSink = (*DeferrableServer)(nil)
)

// Replay feeds a workload trace into a server, stepping the kernel to
// each arrival instant and then to the horizon, and returns the mean
// response time over completed jobs (NaN when none completed). The
// horizon must be finite.
func Replay(k *Kernel, sink JobSink, arrivals []Arrival, horizon float64) (meanResponse float64, err error) {
	if math.IsNaN(horizon) || math.IsInf(horizon, 0) {
		return 0, fmt.Errorf("rtos: replay horizon must be finite, got %v", horizon)
	}
	for _, a := range arrivals {
		if a.Time > k.Now() {
			k.Step(a.Time)
		}
		if _, err := sink.Submit(a.Name, a.Cycles); err != nil {
			return 0, err
		}
	}
	k.Step(horizon)
	done := sink.Completed()
	if len(done) == 0 {
		return math.NaN(), nil
	}
	var sum float64
	for _, j := range done {
		sum += j.ResponseTime()
	}
	return sum / float64(len(done)), nil
}
