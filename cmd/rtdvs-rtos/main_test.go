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
