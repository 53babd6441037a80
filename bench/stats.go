package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// hasPercentile reports whether n samples are enough to report the p-th
// percentile: at least ten samples must lie beyond it. The tolerance
// absorbs the rounding of 100-p.
func hasPercentile(n int, p float64) bool {
	return float64(n)*(100-p)/100 >= 10-1e-9
}

// percentile returns the nearest-rank p-th percentile of xs, which it
// sorts in place. +Inf entries stand for operations that failed or never
// completed, so they count as beyond any latency limit.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	i := int(math.Ceil(p/100*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// median returns the median of xs without modifying it.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// usage is a snapshot of the process's CPU time and peak resident set.
type usage struct {
	cpu    time.Duration
	peakKB int64
}

func readUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}
	}
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return usage{cpu: cpu, peakKB: int64(ru.Maxrss)}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }
