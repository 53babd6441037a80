package experiment

import (
	"context"
	"reflect"
	"testing"
)

// TestRobustnessSoakBurstFBEDF is the CI robustness-soak workload: a
// seeded fbEDF grid sweep under the burst overload regime, run twice at
// full concurrency so the race detector sees the worker pool, the
// per-job runner reuse, and the shedder-armed kernels under real load.
// Soak invariants: the two runs fold bit-identically, the controller
// keeps the burst miss rate an order of magnitude under the shed
// trigger, and nothing in the burst column starves outright.
func TestRobustnessSoakBurstFBEDF(t *testing.T) {
	cfg := GridConfig{
		Policies: []string{"fbEDF", "fbEDF+contain"},
		Regimes:  []string{"burst"},
		Sets:     24,
		Seed:     17,
	}
	run := func() *RobustnessGrid {
		g, err := Grid(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("soak runs diverged: the burst grid is not deterministic under concurrency")
	}
	for pidx, p := range a.Policies {
		c := a.Cells[0][pidx]
		// The shedder triggers at a 0.3 windowed miss ratio; a healthy
		// feedback loop under bursts should never get near it.
		if c.MissRate > 0.1 {
			t.Errorf("%s/burst: miss rate %.4f too close to the shed trigger", p, c.MissRate)
		}
		if c.EnergyNorm <= 0 || c.EnergyNorm > 1 {
			t.Errorf("%s/burst: normalized energy %.4f outside (0, 1]", p, c.EnergyNorm)
		}
	}
}
