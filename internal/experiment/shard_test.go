package experiment

import (
	"context"
	"strings"
	"testing"

	"rtdvs/internal/obs"
)

// The distributed fabric's correctness rests on this: running the grid
// as shards and folding must be DeepEqual-identical to the local worker
// pool, for any partitioning of the jobs.
func TestRunJobsFoldMatchesRun(t *testing.T) {
	cfg := smallConfig()
	want, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	n, err := NumJobs(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n != 9 {
		t.Fatalf("NumJobs = %d, want 9", n)
	}

	// Several partitionings, including out-of-order and uneven shards —
	// the fold must not care how the jobs were grouped or sequenced.
	partitions := [][][]int{
		{{0, 1, 2, 3, 4, 5, 6, 7, 8}},
		{{0, 1, 2}, {3, 4, 5}, {6, 7, 8}},
		{{8, 7, 6, 5, 4, 3, 2, 1, 0}},
		{{4}, {0, 8}, {2, 6, 1}, {7}, {3, 5}},
	}
	for pi, shards := range partitions {
		var all []JobResult
		for _, jobs := range shards {
			res, err := RunJobs(context.Background(), cfg, jobs)
			if err != nil {
				t.Fatalf("partition %d: %v", pi, err)
			}
			if len(res) != len(jobs) {
				t.Fatalf("partition %d: %d results for %d jobs", pi, len(res), len(jobs))
			}
			for i, r := range res {
				if r.Index != jobs[i] {
					t.Fatalf("partition %d: result %d has index %d, want %d", pi, i, r.Index, jobs[i])
				}
			}
			all = append(all, res...)
		}
		got, err := FoldJobs(cfg, all)
		if err != nil {
			t.Fatalf("partition %d: %v", pi, err)
		}
		assertSweepsEqual(t, want, got)
	}
}

// Duplicate results — the hedged-dispatch case, where two workers both
// complete the same shard — fold to the same sweep.
func TestFoldJobsToleratesDuplicates(t *testing.T) {
	cfg := smallConfig()
	want, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	all, err := RunJobs(context.Background(), cfg, []int{0, 1, 2, 3, 4, 5, 6, 7, 8})
	if err != nil {
		t.Fatal(err)
	}
	dup := append(append([]JobResult{}, all...), all[2], all[7])
	got, err := FoldJobs(cfg, dup)
	if err != nil {
		t.Fatal(err)
	}
	assertSweepsEqual(t, want, got)
}

func TestFoldJobsRejectsIncomplete(t *testing.T) {
	cfg := smallConfig()
	all, err := RunJobs(context.Background(), cfg, []int{0, 1, 2, 3, 4, 5, 6, 7})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FoldJobs(cfg, all); err == nil || !strings.Contains(err.Error(), "job 8 missing") {
		t.Fatalf("folding 8/9 jobs: err = %v, want missing-job error", err)
	}
}

func TestFoldJobsRejectsMalformed(t *testing.T) {
	cfg := smallConfig()
	all, err := RunJobs(context.Background(), cfg, []int{0, 1, 2, 3, 4, 5, 6, 7, 8})
	if err != nil {
		t.Fatal(err)
	}

	bad := append([]JobResult{}, all...)
	bad[3].Index = 99
	if _, err := FoldJobs(cfg, bad); err == nil {
		t.Error("out-of-grid index accepted")
	}

	bad = append([]JobResult{}, all...)
	bad[3].Energy = bad[3].Energy[:1]
	if _, err := FoldJobs(cfg, bad); err == nil {
		t.Error("short energy vector accepted")
	}
}

func TestRunJobsValidation(t *testing.T) {
	cfg := smallConfig()
	if _, err := RunJobs(context.Background(), cfg, []int{9}); err == nil {
		t.Error("job index past the grid accepted")
	}
	if _, err := RunJobs(context.Background(), cfg, []int{-1}); err == nil {
		t.Error("negative job index accepted")
	}
	if _, err := RunJobs(context.Background(), Config{NTasks: -1}, []int{0}); err == nil {
		t.Error("invalid config accepted")
	}
}

// Every panel resolves policy names in the extended registry before any
// job is scheduled: the adaptive extensions sweep like the paper's six,
// and an unknown name fails every entry point with nothing scheduled.
func TestSweepPolicyNames(t *testing.T) {
	ctx := context.Background()
	cfg := smallConfig()
	cfg.Policies = []string{"fbEDF", "stSelect"}
	sw, err := RunContext(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"none", "fbEDF", "stSelect"} {
		if len(sw.Energy[p]) != len(cfg.Utilizations) {
			t.Errorf("%s: %d energy points, want %d", p, len(sw.Energy[p]), len(cfg.Utilizations))
		}
	}

	m := NewMetrics(obs.NewRegistry())
	bad := smallConfig()
	bad.Policies = []string{"ccEDF", "warp"}
	bad.Metrics = m
	for i, err := range []error{
		second(RunContext(ctx, bad)),
		second(RunJobs(ctx, bad, []int{0})),
		second(FoldJobs(bad, nil)),
		second(NumJobs(bad)),
		second(Header(bad)),
		second(Robustness(ctx, RobustnessConfig{Policies: []string{"warp"}, Sets: 1})),
		second(Grid(ctx, GridConfig{Policies: []string{"warp"}, Sets: 1})),
	} {
		if err == nil || !strings.Contains(err.Error(), `unknown policy "warp"`) {
			t.Errorf("entry point %d: err = %v, want the unknown policy named", i, err)
		}
	}
	if n := m.jobsScheduled.Value(); n != 0 {
		t.Errorf("%v jobs scheduled for sweeps with an unknown policy", n)
	}
}

// second returns the error of a two-result call.
func second[T any](_ T, err error) error { return err }

// A shard is all-or-nothing: cancellation aborts the call with an
// error instead of returning a partial result set.
func TestRunJobsCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunJobs(ctx, smallConfig(), []int{0, 1}); err == nil {
		t.Fatal("RunJobs on a cancelled context succeeded")
	}
}

// Header is stable across calls and distinguishes configurations — it
// is the cache key's first half.
func TestHeaderIdentity(t *testing.T) {
	h1, err := Header(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	h2, err := Header(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if h1.Kind != "harness" || len(h1.Policies) != 2 || h1.Machine == "" || h1.ExecDesc == "" {
		t.Fatalf("header not fully populated: %+v", h1)
	}
	if h1.Seed != h2.Seed || h1.ExecDesc != h2.ExecDesc {
		t.Fatalf("headers for identical configs differ: %+v vs %+v", h1, h2)
	}
	other := smallConfig()
	other.Seed++
	h3, err := Header(other)
	if err != nil {
		t.Fatal(err)
	}
	if h3.Seed == h1.Seed {
		t.Fatal("perturbed config produced an identical header")
	}
	if _, err := Header(Config{NTasks: -1}); err == nil {
		t.Error("Header accepted an invalid config")
	}
}
