package main

import (
	"testing"

	"rtdvs/internal/core"
)

// Every policy the shell's policy command accepts also starts the shell
// through -policy, and an unknown machine or policy is an error.
func TestNewKernelResolvesExtendedPolicies(t *testing.T) {
	for _, name := range core.ExtendedNames() {
		k, err := newKernel("k6-2+", name)
		if err != nil {
			t.Errorf("-policy %s: %v", name, err)
			continue
		}
		if got := k.Policy().Name(); got != name {
			t.Errorf("-policy %s started %s", name, got)
		}
	}
	if _, err := newKernel("k6-2+", "warp"); err == nil {
		t.Error("unknown policy accepted")
	}
	if _, err := newKernel("nosuch", "ccEDF"); err == nil {
		t.Error("unknown machine accepted")
	}
}

// The step command takes a positive, finite duration; anything else is
// a bad duration, "inf" included, which ParseFloat accepts.
func TestParseDuration(t *testing.T) {
	for _, s := range []string{"10", "0.5", "1e3"} {
		if _, err := parseDuration(s); err != nil {
			t.Errorf("parseDuration(%q): %v", s, err)
		}
	}
	for _, s := range []string{"0", "-1", "inf", "+Inf", "-inf", "NaN", "1e400", "ten", ""} {
		if ms, err := parseDuration(s); err == nil {
			t.Errorf("parseDuration(%q) = %v, want an error", s, ms)
		}
	}
}
