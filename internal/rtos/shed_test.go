package rtos

import (
	"math"
	"strings"
	"testing"
)

// shedWorkload registers three tasks (U = 0.9) whose lowest-value member
// C triples its demand for the first burstInvs invocations — a sustained
// overload episode that ends on its own, so recovery can be observed.
func shedWorkload(t *testing.T, k *Kernel, burstInvs int) {
	t.Helper()
	add := func(name string, value float64, work WorkModel) {
		cfg := TaskConfig{Name: name, Period: 10, WCET: 3, Value: value, Work: work}
		if _, err := k.AddTask(cfg, AddOptions{Immediate: true}); err != nil {
			t.Fatal(err)
		}
	}
	add("A", 2, nil)
	add("B", 1, nil)
	add("C", 0, func(inv int) float64 {
		if inv < burstInvs {
			return 9 // 3× the declared WCET: persistent overload
		}
		return 1
	})
}

func TestLoadSheddingDegradesAndRecovers(t *testing.T) {
	// Control: the same overload with the shedder disarmed.
	ctl := newTestKernel(t, "ccEDF")
	shedWorkload(t, ctl, 30)
	ctl.Step(1500)
	ctlMisses := len(ctl.Misses())
	if ctlMisses == 0 {
		t.Fatal("control kernel saw no misses under 1.3-utilization overload; workload is not overloaded")
	}

	k := newTestKernel(t, "ccEDF")
	shedWorkload(t, k, 30)
	if err := k.SetLoadShedding(ShedConfig{Window: 30, MissFrac: 0.2, TriggerWindows: 2, RecoverWindows: 2, CalmFrac: 0.05}); err != nil {
		t.Fatal(err)
	}
	k.Step(1500)

	if k.Sheds() == 0 {
		t.Fatal("sustained overload never triggered a shed")
	}
	if k.JobsSkipped() == 0 {
		t.Error("shed tasks dropped no jobs")
	}
	// The lowest-value task is shed first.
	var shedNames []string
	for _, ts := range k.Tasks() {
		if ts.Skips > 0 {
			shedNames = append(shedNames, ts.Name)
		}
	}
	if len(shedNames) == 0 || shedNames[0] != "C" && !contains(shedNames, "C") {
		t.Errorf("shed tasks %v, want C (lowest value) among them", shedNames)
	}
	for _, ts := range k.Tasks() {
		if ts.Name == "A" && ts.Skips > 0 && contains(shedNames, "B") == false {
			t.Errorf("A (highest value) shed before B")
		}
	}

	// Recovery hysteresis: the burst ends at inv 30 (~300 ms); by the
	// horizon every shed task has been restored.
	if k.ShedActive() != 0 {
		t.Errorf("%d tasks still shed long after the overload ended", k.ShedActive())
	}
	if k.ShedRecoveries() == 0 {
		t.Error("no hysteresis recoveries recorded")
	}

	// Graceful degradation: shedding must strictly reduce misses versus
	// riding out the overload at full speed.
	if got := len(k.Misses()); got >= ctlMisses {
		t.Errorf("misses with shedding = %d, control = %d; shedding did not help", got, ctlMisses)
	}
}

func contains(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}

func TestLoadSheddingValidation(t *testing.T) {
	k := newTestKernel(t, "ccEDF")
	if err := k.SetLoadShedding(ShedConfig{Window: 10, MissFrac: 1.5}); err == nil {
		t.Error("MissFrac above 1 accepted")
	}
	if err := k.SetLoadShedding(ShedConfig{Window: 10, MissFrac: 0.2, CalmFrac: 0.3}); err == nil {
		t.Error("CalmFrac above MissFrac accepted (no hysteresis band)")
	}
	// NaN fails every range comparison, so each field is checked for
	// finiteness first; an armed NaN shedder would never shed.
	for _, bad := range []ShedConfig{
		{Window: math.NaN()},
		{Window: math.Inf(1)},
		{Window: math.Inf(-1)},
		{Window: 10, MissFrac: math.NaN()},
		{Window: 10, MissFrac: math.Inf(1)},
		{Window: 10, CalmFrac: math.NaN()},
		{Window: 10, MissFrac: 0.3, CalmFrac: math.Inf(-1)},
	} {
		if err := k.SetLoadShedding(bad); err == nil {
			t.Errorf("%+v accepted", bad)
		}
		if cfg := k.LoadShedding(); cfg.Window != 0 {
			t.Errorf("%+v armed the shedder: %+v", bad, cfg)
		}
	}
	if err := k.SetLoadShedding(ShedConfig{Window: 10}); err != nil {
		t.Fatalf("defaults rejected: %v", err)
	}
	cfg := k.LoadShedding()
	if cfg.MissFrac != 0.3 || cfg.CalmFrac != 0.15 || cfg.SkipK != 2 ||
		cfg.TriggerWindows != 2 || cfg.RecoverWindows != 4 {
		t.Errorf("normalized config = %+v", cfg)
	}
}

func TestLoadSheddingDisarmRestores(t *testing.T) {
	k := newTestKernel(t, "ccEDF")
	shedWorkload(t, k, 1<<30) // overload never ends
	if err := k.SetLoadShedding(ShedConfig{Window: 30, MissFrac: 0.2, TriggerWindows: 1}); err != nil {
		t.Fatal(err)
	}
	k.Step(400)
	if k.ShedActive() == 0 {
		t.Fatal("no task shed under permanent overload")
	}
	if err := k.SetLoadShedding(ShedConfig{}); err != nil {
		t.Fatal(err)
	}
	if k.ShedActive() != 0 {
		t.Error("disarming did not restore shed tasks")
	}
	for _, ts := range k.Tasks() {
		if ts.Shed {
			t.Errorf("task %s still marked shed after disarm", ts.Name)
		}
	}
}

func TestShedProcfs(t *testing.T) {
	k := newTestKernel(t, "ccEDF")
	shedWorkload(t, k, 1<<30)
	for _, bad := range []string{"shed 30 NaN", "shed NaN 0.2", "shed +Inf 0.2", "shed 30 Inf"} {
		if out, err := k.Command(bad); err == nil {
			t.Errorf("%q: %q, want an error", bad, out)
		}
	}
	if cfg := k.LoadShedding(); cfg.Window != 0 {
		t.Fatalf("a refused shed command armed the shedder: %+v", cfg)
	}
	if _, err := k.Command("shed 30 0.2"); err != nil {
		t.Fatal(err)
	}
	k.Step(600)

	st := k.Status()
	if !strings.Contains(st, "shed:") {
		t.Errorf("Status missing shed line:\n%s", st)
	}
	if !strings.Contains(st, "/shed") {
		t.Errorf("Status missing /shed task state:\n%s", st)
	}
	if k.Sheds() == 0 || k.JobsSkipped() == 0 {
		t.Error("shed counters did not advance")
	}
	if out, err := k.Command("shed off"); err != nil || !strings.Contains(out, "off") {
		t.Errorf("shed off: %q, %v", out, err)
	}
}
