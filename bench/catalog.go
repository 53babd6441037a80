package main

import (
	"fmt"
	"io"
)

// workloadInfo names one workload and records why the benchmark has it.
type workloadInfo struct {
	Name string
	Why  string
}

// workloads lists the benchmark's workloads in run order. The names and
// reasons are mirrored in BENCHMARK.json; TestListMatchesBenchmarkJSON
// keeps the two in step.
var workloads = []workloadInfo{
	{"fig9-sweep", "the paper's evaluation unit: the experiment pool and BatchRunner lanes on random periods do all the work, HTTP none"},
	{"serve-simulate", "open-loop POST /v1/simulate rate ladder: serve stages, the scalar engine and beta draws per request, and the latency knee"},
	{"serve-batch", "closed-loop 32-item batches of frame sets and global 4-core sets: release tables, frame bitmask and the multicore loop"},
	{"rtos-kernel", "the section 4 kernel path with switch halts and a deferrable server; no sim, serve or experiment code runs"},
}

// metricInfo describes one reported metric. Bound is the share of the
// parent commit's median by which an end-to-end metric may worsen; per-layer
// metrics carry none.
type metricInfo struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd are the metrics every untraced run reports, one value per
// workload. Each workload has one end-to-end unit — a Figure 9 panel, a
// simulate request at 500 req/s, a batch request, a simulated kernel
// second — and the unit metrics are taken over it.
var endToEnd = []metricInfo{
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MiB", "lower", 0.10},
	{"unit_p50_ms", "ms", "lower", 0.25},
	{"unit_cpu_ms", "ms", "lower", 0.25},
}

// perLayer are the metrics every traced run reports: the ladder of layer
// costs, measured by calling each layer's public entry points from this
// package on the seed's inputs.
var perLayer = []metricInfo{
	{"serve.decode_us.simulate", "us", "lower", 0},
	{"serve.validate_us.simulate", "us", "lower", 0},
	{"serve.run_us.simulate", "us", "lower", 0},
	{"serve.encode_us.simulate", "us", "lower", 0},
	{"serve.transport_us.simulate", "us", "lower", 0},
	{"serve.decode_us.batch", "us", "lower", 0},
	{"serve.validate_us.batch", "us", "lower", 0},
	{"serve.run_us.batch", "us", "lower", 0},
	{"serve.encode_us.batch", "us", "lower", 0},
	{"serve.transport_us.batch", "us", "lower", 0},
	{"experiment.job_ms.p50", "ms", "lower", 0},
	{"experiment.job_ms.p90", "ms", "lower", 0},
	{"experiment.chunk_ms", "ms", "lower", 0},
	{"experiment.pool_busy_ratio", "ratio", "higher", 0},
	{"experiment.fold_ms", "ms", "lower", 0},
	{"task.generate_us", "us", "lower", 0},
	{"task.beta_draw_us", "us", "lower", 0},
	{"sim.scalar_run_us", "us", "lower", 0},
	{"sim.scalar_ns_per_event", "ns", "lower", 0},
	{"sim.batch_lane_us.frames", "us", "lower", 0},
	{"sim.batch_lane_us.random", "us", "lower", 0},
	{"sim.batch_ns_per_event.frames", "ns", "lower", 0},
	{"sim.batch_ns_per_event.random", "ns", "lower", 0},
	{"sim.batch_speedup.frames", "ratio", "higher", 0},
	{"sim.batch_speedup.random", "ratio", "higher", 0},
	{"sim.multi_run_us", "us", "lower", 0},
	{"sim.multi_ns_per_event", "ns", "lower", 0},
	{"sim.events_per_run.fig9-sweep", "count", "lower", 0},
	{"sim.events_per_run.serve-simulate", "count", "lower", 0},
	{"sim.events_per_run.serve-batch", "count", "lower", 0},
	{"core.hook_ns.ccEDF", "ns", "lower", 0},
	{"core.hook_ns.laEDF", "ns", "lower", 0},
	{"core.hook_ns.staticEDF", "ns", "lower", 0},
	{"core.hook_ns.ccRM", "ns", "lower", 0},
	{"core.hook_ns.fbEDF", "ns", "lower", 0},
	{"core.hook_ns.stSelect", "ns", "lower", 0},
	{"core.hook_ns.gangLAEDF", "ns", "lower", 0},
	{"core.attach_us", "us", "lower", 0},
	{"sched.readyqueue_op_ns", "ns", "lower", 0},
	{"sched.laneheaps_op_ns", "ns", "lower", 0},
	{"rtos.step_ms_per_sim_s", "ms/s", "lower", 0},
	{"rtos.submit_us", "us", "lower", 0},
	{"rtos.switches_per_sim_s", "1/s", "lower", 0},
	{"bench.trace_overhead", "ratio", "lower", 0},
}

// writeList prints the catalogue: workloads, then end-to-end metrics with
// their bounds, then per-layer metrics.
func writeList(w io.Writer) {
	for _, wl := range workloads {
		fmt.Fprintf(w, "workload %s\n", wl.Name)
	}
	for _, m := range endToEnd {
		fmt.Fprintf(w, "end_to_end %s %s %s %g\n", m.Name, m.Unit, m.Better, m.Bound)
	}
	for _, m := range perLayer {
		fmt.Fprintf(w, "per_layer %s %s %s\n", m.Name, m.Unit, m.Better)
	}
}

func knownWorkload(name string) bool {
	for _, wl := range workloads {
		if wl.Name == name {
			return true
		}
	}
	return false
}
