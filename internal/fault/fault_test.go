package fault

import (
	"math"
	"testing"
)

func TestPlanValidate(t *testing.T) {
	bad := []Plan{
		{OverrunProb: -0.1},
		{OverrunProb: 1.5},
		{OverloadOnProb: math.NaN()},
		{OverrunFactor: 0.5},
		{OverrunTail: -1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("plan %d (%+v) validated", i, p)
		}
	}
	good := []Plan{
		{},
		Default(1),
		{OverrunProb: 1, OverrunFactor: 2, OverrunTail: 0.5},
		Burst(1),
	}
	for i, p := range good {
		if err := p.Validate(); err != nil {
			t.Errorf("plan %d: %v", i, err)
		}
	}
	if _, err := New(Plan{OverrunProb: 2}); err == nil {
		t.Error("New accepted an invalid plan")
	}
}

func TestDefaultScenario(t *testing.T) {
	p := Default(7)
	if p.OverrunProb != 0.05 || p.OverrunFactor != 1.5 || p.Seed != 7 {
		t.Errorf("Default(7) = %+v", p)
	}
}

func TestDemandDeterministicAndKeyed(t *testing.T) {
	a := MustNew(Plan{Seed: 42, OverrunProb: 0.3, OverrunFactor: 1.5})
	b := MustNew(Plan{Seed: 42, OverrunProb: 0.3, OverrunFactor: 1.5})
	var da [3][200]float64
	for ti := 0; ti < 3; ti++ {
		for inv := 0; inv < 200; inv++ {
			da[ti][inv] = a.Demand(0, ti, inv, 10, 9)
		}
	}
	// b draws in another order; a keyed draw must not shift.
	for inv := 199; inv >= 0; inv-- {
		for ti := 2; ti >= 0; ti-- {
			if db := b.Demand(0, ti, inv, 10, 9); db != da[ti][inv] {
				t.Fatalf("draw (%d,%d) differs: %v vs %v", ti, inv, da[ti][inv], db)
			}
		}
	}
	if a.Record().Overruns == 0 {
		t.Fatal("no overruns fired at p=0.3 over 600 draws")
	}
}

func TestDemandInflation(t *testing.T) {
	in := MustNew(Plan{Seed: 1, OverrunProb: 1, OverrunFactor: 1.5})
	d := in.Demand(0, 0, 0, 10, 8)
	if d != 15 {
		t.Errorf("Demand = %v, want 15", d)
	}
	if !in.ModelViolated() {
		t.Error("overrun did not mark the model violated")
	}
	if r := in.Record(); r.Overruns != 1 || r.TaskOverruns[0] != 1 {
		t.Errorf("record = %+v", r)
	}

	// Probability zero: nominal passes through untouched, nothing fires.
	off := MustNew(Plan{Seed: 1})
	if d := off.Demand(0, 0, 0, 10, 8); d != 8 {
		t.Errorf("disabled Demand = %v, want 8", d)
	}
	if off.ModelViolated() || off.Record().Total() != 0 {
		t.Error("disabled injector fired")
	}

	// Factor exactly 1 never produces demand beyond the bound, so the
	// fault must not fire at all (and must not mark a violation).
	unit := MustNew(Plan{Seed: 1, OverrunProb: 1, OverrunFactor: 1})
	if d := unit.Demand(0, 0, 0, 10, 8); d != 8 {
		t.Errorf("factor-1 Demand = %v, want 8", d)
	}
	if unit.ModelViolated() || unit.Record().Total() != 0 {
		t.Error("factor-1 injector fired a non-fault")
	}
}

func TestDemandTail(t *testing.T) {
	in := MustNew(Plan{Seed: 3, OverrunProb: 1, OverrunFactor: 1.2, OverrunTail: 0.8})
	var above float64
	for inv := 0; inv < 100; inv++ {
		d := in.Demand(0, 0, inv, 10, 10)
		if d <= 12-1e-12 {
			t.Fatalf("tail demand %v below base factor", d)
		}
		if d > 12 {
			above++
		}
	}
	if above == 0 {
		t.Error("exponential tail never exceeded the base factor")
	}
}

func TestRecordSnapshotIsolated(t *testing.T) {
	in := MustNew(Plan{Seed: 1, OverrunProb: 1, OverrunFactor: 2})
	in.Demand(0, 0, 0, 10, 10)
	snap := in.Record()
	snap.TaskOverruns[9] = 99
	snap.Events = append(snap.Events, Event{})
	if got := in.Record(); got.TaskOverruns[9] != 0 || len(got.Events) != 1 {
		t.Errorf("snapshot mutation leaked into the injector: %+v", got)
	}
}

func TestU01Range(t *testing.T) {
	for i := 0; i < 10000; i++ {
		u := u01(int64(i), KindOverrun, i%7, i%11)
		if u < 0 || u >= 1 {
			t.Fatalf("u01 out of range: %v", u)
		}
	}
	if u01(1, KindOverrun, 2, 3) == u01(1, KindOverload, 2, 3) {
		t.Error("draw classes collide")
	}
	if u01(1, KindOverrun, 2, 3) == u01(2, KindOverrun, 2, 3) {
		t.Error("seeds collide")
	}
}
