package main

import (
	"math"
	"reflect"
	"testing"
	"time"

	"rtdvs/internal/experiment"
)

func TestValidateFlags(t *testing.T) {
	if err := validateFlags("all", 20, 0.05, 0, 0, "", false); err != nil {
		t.Fatalf("defaults rejected: %v", err)
	}
	for _, exp := range []string{"fig9", "fig16", "fig17", "multicore"} {
		if err := validateFlags(exp, 1, 1, 4, time.Minute, "sweeps.ckpt", true); err != nil {
			t.Fatalf("-exp %s: valid flags rejected: %v", exp, err)
		}
	}
	nan, inf := math.NaN(), math.Inf(1)
	for name, tc := range map[string]struct {
		exp        string
		sets       int
		step       float64
		workers    int
		timeout    time.Duration
		checkpoint string
		resume     bool
	}{
		"zeroSets":          {"all", 0, 0.05, 0, 0, "", false},
		"negativeSets":      {"all", -3, 0.05, 0, 0, "", false},
		"zeroStep":          {"all", 20, 0, 0, 0, "", false},
		"negativeStep":      {"all", 20, -0.05, 0, 0, "", false},
		"nanStep":           {"all", 20, nan, 0, 0, "", false},
		"infStep":           {"all", 20, inf, 0, 0, "", false},
		"stepOverOne":       {"all", 20, 1.5, 0, 0, "", false},
		"negativeWorkers":   {"all", 20, 0.05, -1, 0, "", false},
		"negativeTimeout":   {"all", 20, 0.05, 0, -time.Second, "", false},
		"resumeNoJournal":   {"all", 20, 0.05, 0, 0, "", true},
		"robustnessJournal": {"robustness", 20, 0.05, 0, 0, "sweeps.ckpt", false},
	} {
		if err := validateFlags(tc.exp, tc.sets, tc.step, tc.workers, tc.timeout, tc.checkpoint, tc.resume); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestPanelCheckpoint(t *testing.T) {
	for _, tc := range []struct{ base, panel, want string }{
		{"sweeps.ckpt", "fig9-n5", "sweeps-fig9-n5.ckpt"},
		{"journal", "fig13", "journal-fig13"},
		{"/tmp/a/b.json", "fig10-idle0.1", "/tmp/a/b-fig10-idle0.1.json"},
	} {
		if got := panelCheckpoint(tc.base, tc.panel); got != tc.want {
			t.Errorf("panelCheckpoint(%q, %q) = %q, want %q", tc.base, tc.panel, got, tc.want)
		}
	}
}

// The default -step must give the library's own axis bit for bit, so
// the CLI's panels and journal headers match every other caller's.
func TestUtilizationAxis(t *testing.T) {
	if got, want := utilizationAxis(0.05), experiment.DefaultUtilizations(); !reflect.DeepEqual(got, want) {
		t.Errorf("utilizationAxis(0.05) = %v, want %v", got, want)
	}
	if got := utilizationAxis(0.25); !reflect.DeepEqual(got, []float64{0.25, 0.5, 0.75, 1}) {
		t.Errorf("utilizationAxis(0.25) = %v", got)
	}
}
