package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"rtdvs/internal/experiment"
)

// fig9PanelSeconds is the nominal time of one panel on the reference
// host; a run of d seconds times about d/fig9PanelSeconds distinct panels.
// The count depends only on d, so faster code times the same panels.
const fig9PanelSeconds = 2

// fig9System runs Figure 9 panels through experiment.RunContext, the
// harness worker pool that rtdvs-experiments uses.
type fig9System struct {
	seed       int64
	warm       []string // digest of each set-up's warm-up panel
	warmFailed int
}

func newFig9System(seed int64) *fig9System { return &fig9System{seed: seed} }

// fig9Panels is how many distinct panels a run of d times.
func fig9Panels(d time.Duration) int {
	return max(1, int(math.Round(d.Seconds()/fig9PanelSeconds)))
}

// setUp warms the pool with a two-point panel (192 simulations); the
// experiment package keeps no state between sweeps, so there is nothing
// else to build. Every set-up's warm-up must give the same digest.
func (s *fig9System) setUp(ctx context.Context, _ *tracer) error {
	warm := fig9Config(s.seed, 0)
	warm.Utilizations = []float64{0.5, 1}
	sw, err := experiment.RunContext(ctx, warm)
	if err != nil {
		return err
	}
	d, err := digest(sw)
	if err != nil {
		return err
	}
	if len(s.warm) > 0 && d != s.warm[0] {
		s.warmFailed++
	}
	s.warm = append(s.warm, d)
	return nil
}

// measure times distinct panels, so that each run's median averages over
// several panels' worth of random task sets: a single panel's cost
// varies by about 10% from seed to seed.
func (s *fig9System) measure(ctx context.Context, d time.Duration) (*measurement, error) {
	m := &measurement{mismatched: s.warmFailed, failed: s.warmFailed}
	if s.warmFailed > 0 {
		m.notes = append(m.notes, fmt.Sprintf("warm-up digest MISMATCH in %d of %d set-ups", s.warmFailed, len(s.warm)))
	}
	var digests []string
	u0 := readUsage()
	for k := 0; k < fig9Panels(d); k++ {
		t0 := time.Now()
		sw, err := experiment.RunContext(ctx, fig9Config(s.seed, k))
		el := time.Since(t0)
		m.attempted++
		if err != nil {
			return nil, fmt.Errorf("panel %d: %w", k, err)
		}
		dg, err := digest(sw)
		if err != nil {
			return nil, fmt.Errorf("panel %d digest: %w", k, err)
		}
		digests = append(digests, dg)
		m.unitMS = append(m.unitMS, ms(el))
	}
	m.cpu = readUsage().cpu - u0.cpu
	m.units = float64(len(m.unitMS))
	golden, err := goldenDigests("fig9-sweep", s.seed)
	if err != nil {
		return nil, err
	}
	checkDigests(m, digests, func(k int) string {
		if k < len(golden) {
			return golden[k]
		}
		return ""
	})
	if len(golden) == 0 {
		m.notes = append(m.notes, fmt.Sprintf("warm-up digest identical in %d set-ups; no golden digests for seed %d", len(s.warm), s.seed))
	}
	sims := float64(20 * fig9Sets * 6)
	med := median(m.unitMS)
	m.details = append(m.details,
		detail{"sweep_s", med / 1000, "s", len(m.unitMS)},
		detail{"sweep_sims_per_s", sims / (med / 1000), "sims/s", len(m.unitMS)},
	)
	return m, nil
}

func (s *fig9System) unit(ctx context.Context, tr *tracer, req int64) (time.Duration, error) {
	t0 := time.Now()
	id := tr.begin("experiment.RunContext", 0, req)
	_, err := experiment.RunContext(ctx, fig9Config(s.seed, 0))
	tr.end(id)
	return time.Since(t0), err
}

// ladder composes the panel from its chunks: the pool's capacity
// (workers × panel time) holds the chunk time, which holds task
// generation, policy attaches and the batch lanes, which hold the
// per-event heap and hook costs.
func (s *fig9System) ladder(m map[string]float64, unitUS float64) []rung {
	const pool, chunks, lanes = "panel × workers (pool capacity)", "experiment.chunk (sum over the panel)", "sim.batch_lane × sims"
	sets := float64(20 * fig9Sets)
	sims := sets * 6
	events := sims * m["sim.events_per_run.fig9-sweep"]
	return []rung{
		{pool, "", unitUS * float64(fig9Config(s.seed, 0).Workers)},
		{chunks, pool, m["experiment.chunk_ms"] * 1000 * sets / 10},
		{"task.generate × sets", chunks, m["task.generate_us"] * sets},
		{"core.attach × sims", chunks, m["core.attach_us"] * sims},
		{lanes, chunks, sims * m["sim.batch_lane_us.random"]},
		{"≈ events × sched.laneheaps op", lanes, events * m["sched.laneheaps_op_ns"] / 1000},
		{"≈ events × core hook (mean)", lanes, events * meanHookNS(m) / 1000},
		{"experiment.fold", pool, m["experiment.fold_ms"] * 1000},
	}
}

func (s *fig9System) close() error { return nil }
