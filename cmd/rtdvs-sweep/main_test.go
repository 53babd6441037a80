package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rtdvs/internal/serve"
)

// startWorker runs an in-process shard worker and returns its base URL.
func startWorker(t *testing.T) string {
	t.Helper()
	s := serve.New(serve.Config{Workers: 1, QueueDepth: 1})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return ts.URL
}

// smallArgs is a sweep tiny enough for unit tests yet large enough to
// exercise multiple shards.
func smallArgs(extra ...string) []string {
	args := []string{
		"-ntasks", "3",
		"-sets", "2",
		"-seed", "11",
		"-horizon", "200",
		"-utilizations", "0.3,0.6,0.9",
		"-policies", "none,ccEDF",
	}
	return append(args, extra...)
}

func TestRunLocalWritesJSONAndMetrics(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "sweep.json")
	metrics := filepath.Join(dir, "metrics.txt")
	var buf bytes.Buffer
	if err := run(smallArgs("-o", out, "-metrics-out", metrics), &buf); err != nil {
		t.Fatalf("run: %v", err)
	}
	if buf.Len() != 0 {
		t.Errorf("wrote %d bytes to stdout despite -o", buf.Len())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("read output: %v", err)
	}
	var sw struct {
		Utilizations []float64
		Energy       map[string][]float64
	}
	if err := json.Unmarshal(data, &sw); err != nil {
		t.Fatalf("output is not JSON: %v", err)
	}
	if len(sw.Utilizations) != 3 {
		t.Errorf("got %d utilization points, want 3", len(sw.Utilizations))
	}
	if len(sw.Energy["ccEDF"]) != 3 {
		t.Errorf("got %d ccEDF energy points, want 3", len(sw.Energy["ccEDF"]))
	}
	mtext, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatalf("read metrics: %v", err)
	}
	if !strings.Contains(string(mtext), "rtdvs_fabric_shards_dispatched_total") {
		t.Errorf("metrics dump missing fabric counters:\n%s", mtext)
	}
}

func TestRunDistributedMatchesLocal(t *testing.T) {
	var local bytes.Buffer
	if err := run(smallArgs(), &local); err != nil {
		t.Fatalf("local run: %v", err)
	}
	url := startWorker(t)
	var remote bytes.Buffer
	if err := run(smallArgs("-workers", url, "-shard-size", "2", "-shard-timeout", "30s"), &remote); err != nil {
		t.Fatalf("distributed run: %v", err)
	}
	if !bytes.Equal(local.Bytes(), remote.Bytes()) {
		t.Errorf("distributed output differs from local:\nlocal:\n%s\nremote:\n%s", local.Bytes(), remote.Bytes())
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var buf bytes.Buffer
	for name, args := range map[string][]string{
		"missingNTasks": {"-sets", "2"},
		"badUtil":       smallArgs("-utilizations", "0.3,zap"),
		"badPolicy":     smallArgs("-policies", "nosuch"),
		"unknownFlag":   smallArgs("-frobnicate"),
		// A distribution spec has no uniprocessor sweep model.
		"distributionExec": smallArgs("-exec", "beta=2,5"),
	} {
		if err := run(args, &buf); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
