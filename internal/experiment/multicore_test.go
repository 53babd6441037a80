package experiment

import (
	"context"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"rtdvs/internal/sched"
)

// multiConfig is the shared small multi-core sweep for these tests:
// 2 cores, utilization axis scaled past 1 to exercise real packing.
func multiConfig() Config {
	return Config{
		NTasks:       6,
		Sets:         3,
		Seed:         19,
		Utilizations: []float64{0.6, 1.2},
		Cores:        2,
		Placement:    sched.PartitionedWF,
		ExecSpec:     "uniform",
		Exec:         UniformExec(),
	}
}

// TestMulticoreSweepDeterministicAcrossWorkers: a multi-core sweep is a
// pure function of its Config — worker count may change only speed.
func TestMulticoreSweepDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) *Sweep {
		cfg := multiConfig()
		cfg.Workers = workers
		sw, err := RunContext(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return sw
	}
	a := run(1)
	b := run(runtime.GOMAXPROCS(0))
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("multi-core sweep differs across worker counts:\n%+v\nvs\n%+v", a, b)
	}
}

// TestMulticoreRunJobsFoldMatchesRun: the distributed shard/fold path
// must agree with the local pool at Cores > 1 for any job partitioning.
func TestMulticoreRunJobsFoldMatchesRun(t *testing.T) {
	cfg := multiConfig()
	want, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	n, err := NumJobs(cfg)
	if err != nil {
		t.Fatal(err)
	}
	partitions := [][][]int{
		{{0, 1, 2, 3, 4, 5}},
		{{5, 4, 3}, {2, 1, 0}},
		{{1}, {0, 4}, {3, 5, 2}},
	}
	if n != 6 {
		t.Fatalf("NumJobs = %d, want 6", n)
	}
	for pi, shards := range partitions {
		var all []JobResult
		for _, jobs := range shards {
			res, err := RunJobs(context.Background(), cfg, jobs)
			if err != nil {
				t.Fatalf("partition %d: %v", pi, err)
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

// TestMulticoreSweepOrdering: the paper's policy ordering survives the
// harness at 2 cores — dynamic policies save energy, none is the unit
// baseline, and the partitioned bound stays below every policy.
func TestMulticoreSweepOrdering(t *testing.T) {
	sw, err := RunContext(context.Background(), multiConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := range sw.Utilizations {
		la, cc, se, none := sw.Normalized["laEDF"][i], sw.Normalized["ccEDF"][i],
			sw.Normalized["staticEDF"][i], sw.Normalized["none"][i]
		if none != 1 {
			t.Errorf("point %d: baseline %v != 1", i, none)
		}
		const eps = 1e-9
		if la > cc+eps || cc > se+eps || se > none+eps {
			t.Errorf("point %d: ordering violated: laEDF=%v ccEDF=%v staticEDF=%v none=%v",
				i, la, cc, se, none)
		}
		// 1% slack for horizon truncation, as in the sim conformance
		// suite (the bound is computed from the baseline's cycles).
		if b := sw.BoundNorm[i]; la < b*0.99 {
			t.Errorf("point %d: laEDF %v far below normalized bound %v", i, la, b)
		}
	}
}

// TestMulticoreConfigValidation: global placement has no per-policy
// baseline, so sweeps reject it; out-of-range core counts are caught.
func TestMulticoreConfigValidation(t *testing.T) {
	cfg := multiConfig()
	cfg.Placement = sched.Global
	if _, err := RunContext(context.Background(), cfg); err == nil || !strings.Contains(err.Error(), "global") {
		t.Errorf("global placement: err = %v, want global rejection", err)
	}
	cfg = multiConfig()
	cfg.Cores = 10_000
	if _, err := RunContext(context.Background(), cfg); err == nil || !strings.Contains(err.Error(), "MaxCores") {
		t.Errorf("huge Cores: err = %v, want MaxCores rejection", err)
	}
}

// TestMulticoreHeaderPlacement: multi-core sweeps stamp their placement
// into the shard/checkpoint fingerprint; uniprocessor sweeps leave it
// empty so pre-multicore journals keep validating.
func TestMulticoreHeaderPlacement(t *testing.T) {
	mcfg, err := normalize(multiConfig())
	if err != nil {
		t.Fatal(err)
	}
	mh := sweepHeader(mcfg, ensureBaseline(mcfg.Policies))
	if mh.Placement != "partitioned-wf" {
		t.Errorf("multi-core header placement = %q, want partitioned-wf", mh.Placement)
	}
	if !strings.Contains(mh.Machine, "cores=2") {
		t.Errorf("multi-core header machine %q does not mention cores", mh.Machine)
	}
	ucfg, err := normalize(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	uh := sweepHeader(ucfg, ensureBaseline(ucfg.Policies))
	if uh.Placement != "" {
		t.Errorf("uniprocessor header placement = %q, want empty", uh.Placement)
	}
}

// TestMulticorePanel: the Figure-style multicore panel runs end to end
// and scales the utilization axis by the core count.
func TestMulticorePanel(t *testing.T) {
	sw, err := Multicore(context.Background(), 2, Options{Sets: 2, Seed: 3, Points: []float64{0.3, 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.6, 1.0}
	if !reflect.DeepEqual(sw.Utilizations, want) {
		t.Errorf("panel utilizations = %v, want %v", sw.Utilizations, want)
	}
}
