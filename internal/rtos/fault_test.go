package rtos

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"rtdvs/internal/core"
	"rtdvs/internal/fault"
)

// A silent injector (zero plan) must leave the kernel's behavior — trace,
// energy, counters — bit-identical to running with no injector at all.
func TestKernelSilentInjectorNoChange(t *testing.T) {
	run := func(in *fault.Injector) (*Kernel, *EventLog) {
		k := newTestKernel(t, "ccEDF")
		log := NewEventLog(4096)
		k.SetEventLog(log)
		if in != nil {
			k.SetFaults(in)
		}
		addPaperExample(t, k, 0.7)
		k.Step(300)
		return k, log
	}
	plain, plainLog := run(nil)
	faulted, faultedLog := run(fault.MustNew(fault.Plan{Seed: 4}))

	if got := faulted.Faults().Record(); got.Total() != 0 {
		t.Fatalf("silent injector fired: %+v", got)
	}
	if plain.CPU().Energy() != faulted.CPU().Energy() {
		t.Errorf("energy diverged: %v vs %v", plain.CPU().Energy(), faulted.CPU().Energy())
	}
	if !reflect.DeepEqual(plainLog.Events(), faultedLog.Events()) {
		t.Errorf("traces diverged:\n%s\nvs\n%s", plainLog, faultedLog)
	}
	if !reflect.DeepEqual(plain.Tasks(), faulted.Tasks()) {
		t.Errorf("task status diverged: %+v vs %+v", plain.Tasks(), faulted.Tasks())
	}
}

// Injected overruns under a contained policy: the kernel splits the
// running segment at budget exhaustion, delivers OnOverrun, and the
// wrapper's full-speed fallback absorbs demand the plain policy misses
// on. The per-task injection and containment counters surface the story.
func TestKernelOverrunContainment(t *testing.T) {
	run := func(policy string) *Kernel {
		k := newTestKernel(t, policy)
		k.SetEventLog(NewEventLog(4096))
		// U = 0.34 parks ccEDF at half speed; a 1.5x overrun needs
		// relative speed 0.51, so plain ccEDF misses every deadline while
		// the contained variant escalates and finishes by 8.5 ms.
		k.SetFaults(fault.MustNew(fault.Plan{Seed: 1, OverrunProb: 1, OverrunFactor: 1.5}))
		if _, err := k.AddTask(TaskConfig{Name: "T", Period: 10, WCET: 3.4}, AddOptions{Immediate: true}); err != nil {
			t.Fatal(err)
		}
		k.Step(200)
		return k
	}

	plain := run("ccEDF")
	if len(plain.Misses()) == 0 {
		t.Fatal("plain ccEDF absorbed a 1.5x overrun at half speed")
	}

	k := run("ccEDF+contain")
	if n := len(k.Misses()); n != 0 {
		t.Fatalf("contained ccEDF missed %d deadlines: %+v", n, k.Misses())
	}
	st := k.Tasks()[0]
	if st.Injected == 0 || st.Injected != st.Overruns {
		t.Errorf("injected/overrun counters: %+v", st)
	}
	if st.Containments != st.Releases {
		t.Errorf("containments = %d, want one per release (%d)", st.Containments, st.Releases)
	}
	if got := len(k.EventLog().Filter(EvContain)); got != st.Containments {
		t.Errorf("EvContain events %d != containment counter %d", got, st.Containments)
	}
	cr := k.Policy().(core.ContainmentReporter)
	if cr.Containments() != st.Containments {
		t.Errorf("policy reports %d containments, kernel counted %d", cr.Containments(), st.Containments)
	}
}

// Denied transitions: the kernel holds its point, logs the denial, backs
// off, and retries later rather than hammering the regulator at every
// scheduling decision.
func TestKernelSwitchRetryWithBackoff(t *testing.T) {
	k := newTestKernel(t, "ccEDF")
	log := NewEventLog(8192)
	k.SetEventLog(log)
	k.SetFaults(fault.MustNew(fault.Plan{Seed: 7, SwitchDenyProb: 0.6}))
	// Variable demand keeps ccEDF hopping between points so plenty of
	// transitions get attempted (and refused).
	fracs := []float64{0.2, 0.9, 0.4, 0.7, 0.3, 0.8}
	for _, row := range []struct {
		name         string
		period, wcet float64
	}{{"T1", 8, 3}, {"T2", 10, 3}, {"T3", 14, 1}} {
		wcet := row.wcet
		if _, err := k.AddTask(TaskConfig{
			Name: row.name, Period: row.period, WCET: wcet,
			Work: func(inv int) float64 { return fracs[inv%len(fracs)] * wcet },
		}, AddOptions{Immediate: true}); err != nil {
			t.Fatal(err)
		}
	}
	k.Step(2000)

	if k.SwitchDenials() == 0 {
		t.Fatal("no transitions denied at p=0.6")
	}
	if k.SwitchRetries() == 0 {
		t.Error("denials never retried")
	}
	if k.CPU().Switches() == 0 {
		t.Error("no transition ever succeeded despite retries")
	}
	if got := len(log.Filter(EvSwitchDenied)); got == 0 {
		t.Error("no EvSwitchDenied events logged")
	}
	if k.CPU().Denied() != k.SwitchDenials() {
		t.Errorf("device denials %d != kernel denials %d", k.CPU().Denied(), k.SwitchDenials())
	}
	if len(k.Misses()) != 0 {
		t.Errorf("switch denials alone caused %d misses (policy runs no slower than requested)", len(k.Misses()))
	}
}

// A retry armed while the processor idles bounds the idle span: the idle
// point's refused transition at 5.15 ms is asked again 2 ms later, not
// at the next release 45 ms on.
func TestKernelIdleRetryIsPunctual(t *testing.T) {
	k := newTestKernel(t, "ccEDF")
	log := NewEventLog(256)
	k.SetEventLog(log)
	k.SetFaults(fault.MustNew(fault.Plan{SwitchDenyProb: 1}))
	if _, err := k.AddTask(TaskConfig{Name: "T", Period: 50, WCET: 5}, AddOptions{Immediate: true}); err != nil {
		t.Fatal(err)
	}
	k.Step(20)

	denied := log.Filter(EvSwitchDenied)
	at := -1
	for i, e := range denied {
		if math.Abs(e.Time-5.15) < 1e-9 {
			at = i
		}
	}
	if at < 0 {
		t.Fatalf("no denial at 5.15 ms (job done at 5 ms, backoff capped at 2 ms):\n%s", log)
	}
	if at+1 >= len(denied) || math.Abs(denied[at+1].Time-7.15) > 1e-9 {
		t.Fatalf("denial after 5.15 ms is not at 7.15 ms:\n%s", log)
	}
}

// The overrun watchdog, honest-redeclaration arm: a task that keeps
// overrunning a too-small declared WCET has its bound raised to the
// observed demand once the set still passes the schedulability test.
func TestKernelWatchdogRedeclaresWCET(t *testing.T) {
	k := newTestKernel(t, "ccEDF")
	log := NewEventLog(4096)
	k.SetEventLog(log)
	k.SetOverrunThreshold(3)
	// Declared 2 ms, actual 3 ms: every invocation overruns, but U would
	// only be 0.3 at the true demand — redeclaration is the right call.
	if _, err := k.AddTask(TaskConfig{
		Name: "liar", Period: 10, WCET: 2,
		Work: func(int) float64 { return 3 },
	}, AddOptions{Immediate: true}); err != nil {
		t.Fatal(err)
	}
	k.Step(200)

	st := k.Tasks()[0]
	if st.WCET != 3 {
		t.Fatalf("WCET = %g after watchdog, want redeclared 3", st.WCET)
	}
	if st.Soft {
		t.Error("schedulable redeclaration demoted the task anyway")
	}
	if got := len(log.Filter(EvRedeclare)); got != 1 {
		t.Errorf("EvRedeclare events = %d, want 1", got)
	}
	// Overruns stop accruing once the declaration is honest.
	if st.Overruns != 3 {
		t.Errorf("overruns = %d, want exactly the threshold 3", st.Overruns)
	}
}

// The watchdog's load-shedding arm: when redeclaring to the observed
// demand would break the set's schedulability, the offender is demoted
// to soft so the other tasks keep their hard guarantee.
func TestKernelWatchdogDemotesUnschedulable(t *testing.T) {
	k := newTestKernel(t, "ccEDF")
	log := NewEventLog(4096)
	k.SetEventLog(log)
	k.SetOverrunThreshold(3)
	// Redeclaring the liar to its true 9 ms demand would need U = 1.2.
	if _, err := k.AddTask(TaskConfig{
		Name: "liar", Period: 10, WCET: 6,
		Work: func(int) float64 { return 9 },
	}, AddOptions{Immediate: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := k.AddTask(TaskConfig{Name: "honest", Period: 10, WCET: 3}, AddOptions{Immediate: true}); err != nil {
		t.Fatal(err)
	}
	k.Step(300)

	var liar, honest TaskStatus
	for _, st := range k.Tasks() {
		if st.Name == "liar" {
			liar = st
		} else {
			honest = st
		}
	}
	if !liar.Soft {
		t.Fatalf("unschedulable overrunner not demoted: %+v", liar)
	}
	if liar.WCET != 6 {
		t.Errorf("demotion changed the declared WCET to %g", liar.WCET)
	}
	if honest.Soft {
		t.Error("honest task demoted")
	}
	if got := len(log.Filter(EvDemote)); got != 1 {
		t.Errorf("EvDemote events = %d, want 1", got)
	}
	// After demotion the liar's unfinished invocations are quietly
	// abandoned, not counted as misses.
	demoteAt := log.Filter(EvDemote)[0].Time
	for _, m := range k.Misses() {
		if m.Name == "liar" && m.Deadline > demoteAt+1e-9 {
			t.Errorf("demoted task still accrues misses: %+v", m)
		}
	}
}

// The procfs view surfaces the fault and containment counters: a
// summary line when an injector is installed, and per-task inj/cont
// columns.
func TestStatusRendersFaultCounters(t *testing.T) {
	k := newTestKernel(t, "ccEDF")
	if !strings.Contains(k.Status(), "inj") || strings.Contains(k.Status(), "faults:") {
		t.Errorf("fault-free status wrong:\n%s", k.Status())
	}

	k = newTestKernel(t, "ccEDF+contain")
	k.SetFaults(fault.MustNew(fault.Plan{Seed: 1, OverrunProb: 1, OverrunFactor: 1.5}))
	if _, err := k.AddTask(TaskConfig{Name: "T", Period: 10, WCET: 3.4}, AddOptions{Immediate: true}); err != nil {
		t.Fatal(err)
	}
	k.Step(100)

	s := k.Status()
	st := k.Tasks()[0]
	for _, want := range []string{
		"faults:", "switch denials:", "inj", "cont",
		fmt.Sprintf("(%d overruns", st.Injected),
	} {
		if !strings.Contains(s, want) {
			t.Errorf("Status missing %q:\n%s", want, s)
		}
	}
	// The per-task row carries the actual counter values.
	var row string
	for _, line := range strings.Split(s, "\n") {
		if strings.Contains(line, "T") && strings.Contains(line, "10") {
			row = line
		}
	}
	for _, col := range []int{st.Injected, st.Containments} {
		if !strings.Contains(row, fmt.Sprintf("%d", col)) {
			t.Errorf("task row missing counter %d: %q", col, row)
		}
	}
}
