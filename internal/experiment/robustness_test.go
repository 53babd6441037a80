package experiment

import (
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// The acceptance criterion of the robustness work: at the default fault
// scenario (5% overrun probability, 1.5× inflation) on machine 1, the
// contained aggressive policies hold their miss rate at or below the
// plain-EDF-at-full-speed baseline under the identical fault history,
// while still spending less energy than that baseline.
func TestRobustnessContainmentAcceptance(t *testing.T) {
	sw, err := Robustness(RobustnessConfig{
		Rates: []float64{0, 0.05, 0.25},
		Sets:  12,
		Seed:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	const def = 1  // index of the 5% default-scenario rate
	const high = 2 // a harsher rate where the uncontained policies crack

	if sw.OverrunsPerRun[def] == 0 {
		t.Fatal("no overruns injected at the default rate")
	}
	for _, idx := range []int{def, high} {
		baseline := sw.MissRate["none"][idx]
		for _, p := range []string{"ccEDF+contain", "laEDF+contain"} {
			if got := sw.MissRate[p][idx]; got > baseline+1e-12 {
				t.Errorf("%s miss rate %.5f above plain-EDF baseline %.5f at rate %.2f",
					p, got, baseline, sw.Rates[idx])
			}
			if e := sw.EnergyNorm[p][idx]; e >= 1 {
				t.Errorf("%s normalized energy %.3f not below the full-speed baseline", p, e)
			}
			if sw.Containments[p][idx] == 0 {
				t.Errorf("%s reports no containments despite injected overruns", p)
			}
			if sw.ContainLatency[p][idx] <= 0 {
				t.Errorf("%s containment latency %.4f not positive", p, sw.ContainLatency[p][idx])
			}
		}
	}

	// At rate 0 the sweep degenerates to a fault-free comparison: nobody
	// misses, nobody contains.
	for p := range sw.MissRate {
		if m := sw.MissRate[p][0]; m != 0 {
			t.Errorf("%s misses at fault rate 0: %g", p, m)
		}
		if c := sw.Containments[p][0]; c != 0 {
			t.Errorf("%s containments at fault rate 0: %g", p, c)
		}
	}

	// The uncontained aggressive policies are the reason the containment
	// layer exists: at the harsher rate they must miss more than their
	// contained variants (summed over both policies to keep the check
	// robust across seeds).
	var plain, contained float64
	for _, p := range []string{"ccEDF", "laEDF"} {
		plain += sw.MissRate[p][high]
		contained += sw.MissRate[p+"+contain"][high]
	}
	if plain <= contained {
		t.Errorf("uncontained miss rate %.5f not above contained %.5f", plain, contained)
	}
}

// Robustness sweeps must be bit-identical regardless of worker count:
// workers capture per-run scalars into per-job slots and the fold into
// the streaming means runs sequentially in job-submission order.
func TestRobustnessDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) *RobustnessSweep {
		sw, err := Robustness(RobustnessConfig{
			Rates:   []float64{0, 0.15},
			NTasks:  4,
			Sets:    4,
			Seed:    13,
			Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return sw
	}
	a := run(1)
	b := run(runtime.GOMAXPROCS(0))
	if !reflect.DeepEqual(a, b) {
		t.Errorf("robustness sweep differs across worker counts:\n%+v\nvs\n%+v", a, b)
	}
}

// Robustness sweeps are deterministic in the seed.
func TestRobustnessDeterministic(t *testing.T) {
	run := func() *RobustnessSweep {
		sw, err := Robustness(RobustnessConfig{
			Policies: []string{"none", "ccEDF+contain"},
			Rates:    []float64{0.1},
			NTasks:   4,
			Sets:     4,
			Seed:     9,
		})
		if err != nil {
			t.Fatal(err)
		}
		return sw
	}
	a, b := run(), run()
	for p := range a.MissRate {
		if a.MissRate[p][0] != b.MissRate[p][0] || a.EnergyNorm[p][0] != b.EnergyNorm[p][0] {
			t.Errorf("%s: sweep not deterministic", p)
		}
	}
}

func TestRobustnessRenderAndCSV(t *testing.T) {
	sw, err := Robustness(RobustnessConfig{
		Rates:  []float64{0.2},
		NTasks: 3,
		Sets:   3,
		Seed:   5,
	})
	if err != nil {
		t.Fatal(err)
	}
	text := sw.Render(nil)
	for _, want := range []string{"miss rate", "energy", "containment", "ccEDF+contain", "0.20"} {
		if !strings.Contains(text, want) {
			t.Errorf("Render missing %q:\n%s", want, text)
		}
	}
	var csv strings.Builder
	if err := sw.WriteCSV(&csv, nil); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("CSV lines = %d, want header + 1 rate", len(lines))
	}
	if !strings.HasPrefix(lines[0], "rate,miss_none,energy_none") {
		t.Errorf("CSV header %q", lines[0])
	}
	for _, cell := range strings.Split(lines[1], ",") {
		if cell == "NaN" {
			t.Errorf("CSV carries NaN cells: %q", lines[1])
		}
	}
}

// A fault parameter the injector rejects must come back as an error
// before any worker starts, never as a panic inside one.
func TestRobustnessRejectsInvalidFaultPlan(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  RobustnessConfig
	}{
		{"rate above 1", RobustnessConfig{Rates: []float64{1.5}}},
		{"factor below 1", RobustnessConfig{OverrunFactor: 0.5}},
		{"negative tail", RobustnessConfig{OverrunTail: -1}},
	} {
		c.cfg.Sets = 1
		if sw, err := Robustness(c.cfg); err == nil {
			t.Errorf("%s: accepted, got %+v", c.name, sw)
		} else if !strings.HasPrefix(err.Error(), "fault: ") {
			t.Errorf("%s: error %q does not come from the fault plan", c.name, err)
		}
	}
}
