package experiment

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"rtdvs/internal/checkpoint"
)

func checkpointConfig(path string) Config {
	cfg := smallConfig()
	cfg.Exec = UniformExec() // exercise float journaling on non-trivial values
	cfg.Checkpoint = path
	return cfg
}

// A checkpointed sweep must produce exactly the result of an
// unjournaled one.
func TestCheckpointFreshRunMatches(t *testing.T) {
	cfg := checkpointConfig("")
	want, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	cfg.Checkpoint = path
	got, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertSweepsEqual(t, want, got)

	// The journal holds the header plus one record per job.
	log, records, err := checkpoint.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	log.Close()
	if want := 1 + len(cfg.Utilizations)*cfg.Sets; len(records) != want {
		t.Fatalf("journal has %d records, want %d", len(records), want)
	}
}

// Resuming a partially-written journal skips the recorded jobs and
// still produces a bit-identical sweep — including when the journal's
// tail is a torn (mid-record) write.
func TestCheckpointResumeBitIdentical(t *testing.T) {
	cfg := checkpointConfig("")
	want, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Build a complete journal, then replay prefixes of it.
	full := filepath.Join(t.TempDir(), "full.ckpt")
	cfg.Checkpoint = full
	if _, err := RunContext(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	log, records, err := checkpoint.Open(full)
	if err != nil {
		t.Fatal(err)
	}
	log.Close()

	for _, tc := range []struct {
		name string
		keep int    // records (incl. header) to replay into the partial journal
		tail []byte // raw bytes appended afterwards (torn write)
	}{
		{"empty", 0, nil},
		{"headerOnly", 1, nil},
		{"half", 1 + len(records[1:])/2, nil},
		{"allButOne", len(records) - 1, nil},
		{"tornTail", 1 + len(records[1:])/2, []byte{0x2a, 0x00, 0x00, 0x00, 0xde, 0xad}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "partial.ckpt")
			part, err := checkpoint.Create(path)
			if err != nil {
				t.Fatal(err)
			}
			for _, rec := range records[:tc.keep] {
				if err := part.Append(rec); err != nil {
					t.Fatal(err)
				}
			}
			if err := part.Close(); err != nil {
				t.Fatal(err)
			}
			if tc.tail != nil {
				f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := f.Write(tc.tail); err != nil {
					t.Fatal(err)
				}
				f.Close()
			}

			rcfg := cfg
			rcfg.Checkpoint = path
			rcfg.Resume = true
			got, err := RunContext(context.Background(), rcfg)
			if err != nil {
				t.Fatal(err)
			}
			assertSweepsEqual(t, want, got)
		})
	}
}

// A cancelled checkpointed panel journals its completed jobs; resuming
// finishes the remainder and matches the uninterrupted run. Figures
// 9–13 and the multicore panel journal through RunContext; Figures 16
// and 17 through the power panel.
func TestCheckpointResumeAfterCancel(t *testing.T) {
	for _, p := range panelEntries() {
		if p.name != "RunContext" && p.name != "Figure16" && p.name != "Figure17" {
			continue
		}
		t.Run(p.name, func(t *testing.T) {
			count := newErrCountdown(0)
			want, err := p.run(count, "", false)
			if err != nil {
				t.Fatal(err)
			}

			path := filepath.Join(t.TempDir(), "panel.ckpt")
			cancelMidJob(t, p, path)
			got, err := p.run(context.Background(), path, true)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("resumed panel differs:\nwant %+v\ngot  %+v", want, got)
			}
		})
	}
}

// Resume must refuse a journal written by a differently-parameterized
// sweep instead of silently mixing results.
func TestCheckpointFingerprintMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	cfg := checkpointConfig(path)
	if _, err := RunContext(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}

	other := cfg
	other.Seed++
	other.Resume = true
	_, err := RunContext(context.Background(), other)
	if err == nil {
		t.Fatal("resume with a mismatched seed succeeded")
	}
	if !strings.Contains(err.Error(), "differently-parameterized") {
		t.Fatalf("error %v does not explain the fingerprint mismatch", err)
	}

	// Figures 16 and 17 share a workload but not a journal.
	o := Options{Sets: 1, Seed: 3, Points: []float64{0.5}, Workers: 1, Checkpoint: path}
	if _, err := Figure16(context.Background(), o); err != nil {
		t.Fatal(err)
	}
	o.Resume = true
	if _, err := Figure17(context.Background(), o); err == nil || !strings.Contains(err.Error(), "differently-parameterized") {
		t.Fatalf("Figure 17 resumed from a Figure 16 journal: err = %v", err)
	}
}

// Without Resume, an existing journal is truncated and rebuilt.
func TestCheckpointFreshTruncatesStale(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	cfg := checkpointConfig(path)
	if _, err := RunContext(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}

	// Re-running with different parameters and no Resume must succeed:
	// the stale journal is discarded, not validated.
	cfg.Seed++
	if _, err := RunContext(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
}
