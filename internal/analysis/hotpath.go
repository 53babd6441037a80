package analysis

// HotpathRegistry is the committed list of //rtdvs:hotpath functions and
// the 0-alloc benchmark (or AllocsPerRun test) that pins each one's
// steady-state allocation behavior. Keys are FuncKey strings:
// "pkgpath.Func" for plain functions, "pkgpath.Type.Method" for methods.
//
// The registry exists so the annotation set cannot drift: the hotalloc
// analyzer reports an annotated function missing from this map and a map
// entry whose function lost its annotation, and
// TestHotpathRegistryBenchmarks (hotpath_test.go) fails when a listed
// benchmark no longer exists in the repository's test files. Adding a
// hot-path function therefore takes all three pieces — the annotation,
// the registry row, and a pinning benchmark — and removing any one of
// them breaks vet or the tests until the other two follow.
var HotpathRegistry = map[string]string{
	// Simulator event loop and its per-event helpers, the release order
	// and the ready bitmask included: one laEDF run on a reused Runner
	// must stay at 0 allocs/op.
	"rtdvs/internal/sim.simulator.run":             "BenchmarkSimulatorThroughput",
	"rtdvs/internal/sim.simulator.processReleases": "BenchmarkSimulatorThroughput",
	"rtdvs/internal/sim.simulator.switchTo":        "BenchmarkSimulatorThroughput",
	"rtdvs/internal/sim.simulator.record":          "BenchmarkSimulatorThroughput",
	"rtdvs/internal/sim.simulator.poll":            "BenchmarkSimulatorThroughput",
	"rtdvs/internal/sim.simulator.readyAdd":        "BenchmarkSimulatorThroughput",
	"rtdvs/internal/sim.simulator.readyPeek":       "BenchmarkSimulatorThroughput",
	"rtdvs/internal/sim.simulator.readyRemove":     "BenchmarkSimulatorThroughput",
	"rtdvs/internal/sim.simulator.reorder":         "BenchmarkSimulatorThroughput",
	"rtdvs/internal/sim.simulator.DeadlineOrder":   "BenchmarkSimulatorThroughput",
	"rtdvs/internal/sim.simulator.nextReleaseTime": "BenchmarkSimulatorThroughput",
	"rtdvs/internal/sim.simulator.fireReleases":    "BenchmarkSimulatorThroughput",
	"rtdvs/internal/sim.simulator.abort":           "BenchmarkSimulatorThroughput",
	"rtdvs/internal/sim.sortIndexes":               "BenchmarkSimulatorThroughput",

	// The run-queue key the invariant checker's scan compares by: a
	// reused Runner runs a 130-task set, whose ready set takes three
	// words, at 0 allocs/op with the checker on.
	"rtdvs/internal/sim.simulator.readyKey": "TestLargeSetSteadyStateAllocs",

	// Indexed-heap ready queue (timed by the system benchmark's ladder;
	// no engine uses it): a warmed push/drain cycle allocates nothing
	// (also pinned by TestReadyQueueReuse's AllocsPerRun check).
	"rtdvs/internal/sched.ReadyQueue.Push":     "BenchmarkReadyQueueHeap128",
	"rtdvs/internal/sched.ReadyQueue.Pop":      "BenchmarkReadyQueueHeap128",
	"rtdvs/internal/sched.ReadyQueue.Peek":     "BenchmarkReadyQueueHeap128",
	"rtdvs/internal/sched.ReadyQueue.PeekKey":  "BenchmarkReadyQueueHeap128",
	"rtdvs/internal/sched.ReadyQueue.Remove":   "BenchmarkReadyQueueHeap128",
	"rtdvs/internal/sched.ReadyQueue.Update":   "BenchmarkReadyQueueHeap128",
	"rtdvs/internal/sched.ReadyQueue.Contains": "BenchmarkReadyQueueHeap128",
	"rtdvs/internal/sched.ReadyQueue.removeAt": "BenchmarkReadyQueueHeap128",
	"rtdvs/internal/sched.ReadyQueue.siftUp":   "BenchmarkReadyQueueHeap128",
	"rtdvs/internal/sched.ReadyQueue.siftDown": "BenchmarkReadyQueueHeap128",
	"rtdvs/internal/sched.ReadyQueue.swap":     "BenchmarkReadyQueueHeap128",
	"rtdvs/internal/sched.ReadyQueue.less":     "BenchmarkReadyQueueHeap128",
	"rtdvs/internal/sched.ReadyQueue.growPos":  "BenchmarkReadyQueueHeap128",

	// The deadline order the simulator hands laEDF and ccRM
	// (core.OrderedSystem), and its comparator, which also orders the
	// simulator's release order: the laEDF runs above read the order at
	// every hook.
	"rtdvs/internal/core.deadlineOrder": "BenchmarkSimulatorThroughput",
	"rtdvs/internal/core.OrderBefore":   "BenchmarkSimulatorThroughput",

	// Incremental policy callbacks, invoked once per release/completion.
	// The reservation and the walk also run gangCCEDF, gangLAEDF, stEDF
	// and stSelect. The benchmarks' System keeps no deadline order, so
	// laEDF repairs its own and ccRM scans.
	"rtdvs/internal/core.base.setLowestAtLeast":       "BenchmarkPolicyOverheadCCEDF64",
	"rtdvs/internal/core.reservation.adjust":          "BenchmarkPolicyOverheadCCEDF64",
	"rtdvs/internal/core.reservation.selectFrequency": "BenchmarkPolicyOverheadCCEDF64",
	"rtdvs/internal/core.reservation.OnRelease":       "BenchmarkPolicyOverheadCCEDF64",
	"rtdvs/internal/core.reservation.OnCompletion":    "BenchmarkPolicyOverheadCCEDF64",
	"rtdvs/internal/core.gangRequired":                "BenchmarkPolicyOverheadGangCCEDF64",
	"rtdvs/internal/core.laEDF.defer_":                "BenchmarkPolicyOverheadLAEDF64",
	"rtdvs/internal/core.laEDF.repair":                "BenchmarkPolicyOverheadLAEDF64",
	"rtdvs/internal/core.laEDF.OnRelease":             "BenchmarkPolicyOverheadLAEDF64",
	"rtdvs/internal/core.laEDF.OnCompletion":          "BenchmarkPolicyOverheadLAEDF64",
	"rtdvs/internal/core.laEDF.OnExecute":             "BenchmarkPolicyOverheadLAEDF64",
	"rtdvs/internal/core.ccRM.nextDeadline":           "BenchmarkPolicyOverheadCCRM64",
	"rtdvs/internal/core.ccRM.allocateCycles":         "BenchmarkPolicyOverheadCCRM64",
	"rtdvs/internal/core.ccRM.selectFrequency":        "BenchmarkPolicyOverheadCCRM64",
	"rtdvs/internal/core.ccRM.OnRelease":              "BenchmarkPolicyOverheadCCRM64",
	"rtdvs/internal/core.ccRM.OnCompletion":           "BenchmarkPolicyOverheadCCRM64",
	"rtdvs/internal/core.ccRM.OnExecute":              "BenchmarkPolicyOverheadCCRM64",
	"rtdvs/internal/core.fbEDF.control":               "BenchmarkPolicyOverheadFBEDF64",
	"rtdvs/internal/core.fbEDF.OnRelease":             "BenchmarkPolicyOverheadFBEDF64",
	"rtdvs/internal/core.fbEDF.OnCompletion":          "BenchmarkPolicyOverheadFBEDF64",
	"rtdvs/internal/core.budgeted.charge":             "BenchmarkPolicyOverheadSTSelect64",
	"rtdvs/internal/core.budgeted.OnExecute":          "BenchmarkPolicyOverheadSTSelect64",
	"rtdvs/internal/core.stSelect.OnRelease":          "BenchmarkPolicyOverheadSTSelect64",

	// Global placement's slot segment on the same event loop: a reused
	// MultiRunner pass on a 4-core spec must stay at 0 allocs/op.
	"rtdvs/internal/sim.simulator.execSlots": "BenchmarkMultiCoreThroughput",
	"rtdvs/internal/sim.simulator.pickSlots": "BenchmarkMultiCoreThroughput",
	"rtdvs/internal/sim.simulator.assign":    "BenchmarkMultiCoreThroughput",

	// The rtos kernel's scheduling point: a warmed kernel stepped through
	// a simulated second allocates nothing.
	"rtdvs/internal/rtos.Kernel.Step":            "BenchmarkKernelStep",
	"rtdvs/internal/rtos.Kernel.processReleases": "BenchmarkKernelStep",
	"rtdvs/internal/rtos.Kernel.abortJob":        "BenchmarkKernelStep",
	"rtdvs/internal/rtos.Kernel.pick":            "BenchmarkKernelStep",
	"rtdvs/internal/rtos.Kernel.nextReleaseTime": "BenchmarkKernelStep",
	"rtdvs/internal/rtos.Kernel.activate":        "BenchmarkKernelStep",
	"rtdvs/internal/rtos.Kernel.deactivate":      "BenchmarkKernelStep",

	// Closure-free operating-point lookup used by every dynamic policy.
	"rtdvs/internal/machine.PointSelector.AtLeast": "TestSelectorMatchesLowestAtLeast",

	// Flattened lane-strided heaps (timed by the system benchmark's
	// ladder; no engine uses them): steady-state push/pop churn
	// allocates nothing.
	"rtdvs/internal/sched.LaneHeaps.Push":     "BenchmarkLaneHeaps",
	"rtdvs/internal/sched.LaneHeaps.Pop":      "BenchmarkLaneHeaps",
	"rtdvs/internal/sched.LaneHeaps.Peek":     "BenchmarkLaneHeaps",
	"rtdvs/internal/sched.LaneHeaps.PeekKey":  "BenchmarkLaneHeaps",
	"rtdvs/internal/sched.LaneHeaps.Remove":   "BenchmarkLaneHeaps",
	"rtdvs/internal/sched.LaneHeaps.Update":   "BenchmarkLaneHeaps",
	"rtdvs/internal/sched.LaneHeaps.Contains": "BenchmarkLaneHeaps",
	"rtdvs/internal/sched.LaneHeaps.Len":      "BenchmarkLaneHeaps",
	"rtdvs/internal/sched.LaneHeaps.removeAt": "BenchmarkLaneHeaps",
	"rtdvs/internal/sched.LaneHeaps.siftUp":   "BenchmarkLaneHeaps",
	"rtdvs/internal/sched.LaneHeaps.siftDown": "BenchmarkLaneHeaps",
	"rtdvs/internal/sched.LaneHeaps.swap":     "BenchmarkLaneHeaps",
	"rtdvs/internal/sched.LaneHeaps.less":     "BenchmarkLaneHeaps",

	// Keyed Beta demand draws: one DistExec.Cycles call on a parsed
	// "beta=2,5" model allocates nothing. A Beta{A, B} literal derives
	// its shape constants per call (newBetaShape) by value.
	"rtdvs/internal/task.DistExec.Cycles":          "BenchmarkBetaDraw",
	"rtdvs/internal/task.Beta.Quantile":            "BenchmarkBetaDraw",
	"rtdvs/internal/task.bisectToWindow":           "BenchmarkBetaDraw",
	"rtdvs/internal/task.Beta.shaped":              "BenchmarkBetaDraw",
	"rtdvs/internal/task.newBetaShape":             "BenchmarkBetaDraw",
	"rtdvs/internal/task.betaShape.window":         "BenchmarkBetaDraw",
	"rtdvs/internal/task.betaShape.newton":         "BenchmarkBetaDraw",
	"rtdvs/internal/task.betaShape.regIncBeta":     "BenchmarkBetaDraw",
	"rtdvs/internal/task.betaShape.regIncBetaPair": "BenchmarkBetaDraw",
	"rtdvs/internal/task.betaShape.prefactor":      "BenchmarkBetaDraw",
	"rtdvs/internal/task.betaShape.fromPrefactor":  "BenchmarkBetaDraw",
	"rtdvs/internal/task.betaGuess":                "BenchmarkBetaDraw",
	"rtdvs/internal/task.betaCF":                   "BenchmarkBetaDraw",
	"rtdvs/internal/task.betaCFPair":               "BenchmarkBetaDraw",
	"rtdvs/internal/task.lentz":                    "BenchmarkBetaDraw",
	"rtdvs/internal/task.lentzInv":                 "BenchmarkBetaDraw",
	"rtdvs/internal/task.sampleU01":                "BenchmarkBetaDraw",
	"rtdvs/internal/task.splitmix64":               "BenchmarkBetaDraw",

	// Metrics instrument updates: one atomic op each, pinned at exactly
	// zero allocations so instruments may sit on the simulator hot path.
	"rtdvs/internal/obs.atomicFloat.add":   "TestInstrumentOpsAllocate",
	"rtdvs/internal/obs.atomicFloat.store": "TestInstrumentOpsAllocate",
	"rtdvs/internal/obs.atomicFloat.load":  "TestInstrumentOpsAllocate",
	"rtdvs/internal/obs.Counter.Inc":       "TestInstrumentOpsAllocate",
	"rtdvs/internal/obs.Counter.Add":       "TestInstrumentOpsAllocate",
	"rtdvs/internal/obs.Gauge.Set":         "TestInstrumentOpsAllocate",
	"rtdvs/internal/obs.Gauge.Add":         "TestInstrumentOpsAllocate",
	"rtdvs/internal/obs.Histogram.Observe": "TestInstrumentOpsAllocate",
}
