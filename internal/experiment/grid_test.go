package experiment

import (
	"context"
	"reflect"
	"strings"
	"testing"
)

func smallGrid(t *testing.T, workers int) *RobustnessGrid {
	t.Helper()
	g, err := Grid(context.Background(), GridConfig{
		Policies: []string{"staticEDF", "laEDF", "fbEDF", "fbEDF+contain"},
		Sets:     6,
		Seed:     3,
		Workers:  workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// The grid's acceptance story: under the sustained-overload regime the
// feedback policy absorbs the overload (near-zero misses, no shedding),
// while the lookahead policy — planning against the violated WCETs —
// misses enough that the kernel demotes tasks to recover. The clean
// column stays fault-free for everyone.
func TestGridFeedbackVersusLookahead(t *testing.T) {
	g := smallGrid(t, 0)
	ri := func(regime string) int {
		for i, r := range g.Regimes {
			if r == regime {
				return i
			}
		}
		t.Fatalf("regime %q missing from %v", regime, g.Regimes)
		return -1
	}
	pi := func(policy string) int {
		for i, p := range g.Policies {
			if p == policy {
				return i
			}
		}
		t.Fatalf("policy %q missing from %v", policy, g.Policies)
		return -1
	}

	clean, sustained := ri("clean"), ri("sustained")
	for pidx, p := range g.Policies {
		c := g.Cells[clean][pidx]
		if c.MissRate != 0 || c.Sheds != 0 || c.SkippedJobs != 0 {
			t.Errorf("%s/clean: miss=%g sheds=%g skips=%g, want all zero", p, c.MissRate, c.Sheds, c.SkippedJobs)
		}
	}

	fb := g.Cells[sustained][pi("fbEDF")]
	la := g.Cells[sustained][pi("laEDF")]
	if fb.MissRate >= la.MissRate {
		t.Errorf("sustained overload: fbEDF miss rate %.4f not below laEDF %.4f", fb.MissRate, la.MissRate)
	}
	if la.Sheds == 0 {
		t.Error("laEDF under sustained overload never triggered the load shedder")
	}
	if fb.Sheds != 0 {
		t.Errorf("fbEDF under sustained overload shed %.2f tasks; the feedback loop should absorb it", fb.Sheds)
	}
	// The full-speed baseline neither misses nor sheds under any regime
	// at this utilization — shedding keys on misses, not overruns.
	none := pi("none")
	for ridx, regime := range g.Regimes {
		c := g.Cells[ridx][none]
		if c.MissRate != 0 || c.Sheds != 0 {
			t.Errorf("none/%s: miss=%g sheds=%g, want zero", regime, c.MissRate, c.Sheds)
		}
	}
	// Containment latency shows up only for the containing policy.
	if g.Cells[sustained][pi("fbEDF+contain")].ContainLatency <= 0 {
		t.Error("fbEDF+contain reports no containment latency under sustained overload")
	}
	if fb.ContainLatency != 0 {
		t.Errorf("fbEDF (no containment) reports latency %.3f", fb.ContainLatency)
	}
}

// Grid results must be bit-identical regardless of worker count — the
// same fold discipline as the other sweeps.
func TestGridDeterministicAcrossWorkers(t *testing.T) {
	a := smallGrid(t, 1)
	b := smallGrid(t, 4)
	if !reflect.DeepEqual(a, b) {
		t.Error("grid results differ between 1 and 4 workers")
	}
}

func TestGridRejectsUnknownRegime(t *testing.T) {
	if _, err := Grid(context.Background(), GridConfig{Regimes: []string{"gamma-rays"}, Sets: 1}); err == nil {
		t.Error("unknown regime accepted")
	}
}

func TestGridRenderCSV(t *testing.T) {
	g, err := Grid(context.Background(), GridConfig{
		Policies: []string{"fbEDF"},
		Regimes:  []string{"clean", "sustained"},
		Sets:     2,
		Seed:     5,
	})
	if err != nil {
		t.Fatal(err)
	}
	text := g.Render()
	for _, want := range []string{"miss rate", "energy", "containment latency", "load sheds", "skipped jobs", "sustained"} {
		if !strings.Contains(text, want) {
			t.Errorf("Render missing %q", want)
		}
	}
	var csv strings.Builder
	if err := g.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(csv.String(), "\n"); lines != 1+len(g.Regimes)*len(g.Policies) {
		t.Errorf("CSV has %d lines, want %d", lines, 1+len(g.Regimes)*len(g.Policies))
	}
}
