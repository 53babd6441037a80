package experiment

import (
	"context"
	"path/filepath"
	"strings"
	"testing"

	"rtdvs/internal/obs"
)

// TestHarnessMetrics runs a small sweep twice — fresh, then resumed from
// its checkpoint — and checks the progress counters the registry
// reports.
func TestHarnessMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	ckpt := filepath.Join(t.TempDir(), "sweep.ckpt")
	cfg := Config{
		Policies:     []string{"none", "ccEDF"},
		NTasks:       3,
		Utilizations: []float64{0.3, 0.6},
		Sets:         2,
		Seed:         42,
		Horizon:      500,
		Workers:      2,
		Checkpoint:   ckpt,
		Metrics:      m,
	}
	sw, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	const jobs = 4 // 2 utilizations x 2 sets
	if got := m.jobsScheduled.Value(); got != jobs {
		t.Errorf("jobsScheduled = %v, want %d", got, jobs)
	}
	if got := m.jobsDone.Value(); got != jobs {
		t.Errorf("jobsDone = %v, want %d", got, jobs)
	}
	if got := m.jobsReplayed.Value(); got != 0 {
		t.Errorf("jobsReplayed = %v, want 0 on a fresh sweep", got)
	}
	// Every job runs every policy once.
	if got := m.simRuns.Value(); got != jobs*2 {
		t.Errorf("simRuns = %v, want %d", got, jobs*2)
	}

	// Resuming a complete journal replays everything and computes nothing.
	cfg.Resume = true
	sw2, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.jobsReplayed.Value(); got != jobs {
		t.Errorf("jobsReplayed after resume = %v, want %d", got, jobs)
	}
	if got := m.jobsDone.Value(); got != jobs {
		t.Errorf("jobsDone after full replay = %v, want still %d", got, jobs)
	}
	for _, p := range []string{"none", "ccEDF"} {
		for i := range sw.Utilizations {
			if sw.Energy[p][i] != sw2.Energy[p][i] {
				t.Errorf("resume changed %s energy at %v", p, sw.Utilizations[i])
			}
		}
	}

	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateText([]byte(sb.String())); err != nil {
		t.Fatalf("experiment scrape invalid: %v", err)
	}
}
