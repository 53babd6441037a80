package sched

import "testing"

func TestKindString(t *testing.T) {
	if EDF.String() != "EDF" || RM.String() != "RM" {
		t.Errorf("Kind strings: %v %v", EDF, RM)
	}
	if Kind(9).String() != "Kind(9)" {
		t.Errorf("unknown kind string: %v", Kind(9))
	}
}
