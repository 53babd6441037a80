package experiment

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"strconv"
	"strings"
	"testing"

	"rtdvs/internal/core"
)

func TestSweepWriteCSV(t *testing.T) {
	sw, err := Figure9(context.Background(), 5, fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sw.WriteCSV(&buf, true, core.Names()); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1+len(sw.Utilizations) {
		t.Fatalf("%d rows", len(rows))
	}
	if rows[0][0] != "utilization" || rows[0][len(rows[0])-1] != "bound" {
		t.Errorf("header = %v", rows[0])
	}
	// Every data cell must parse as a float; normalized values within
	// (0, 1.2].
	for _, row := range rows[1:] {
		for i, cell := range row {
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				t.Fatalf("cell %q: %v", cell, err)
			}
			if i > 0 && (v <= 0 || v > 1.2) {
				t.Errorf("normalized value %v out of range", v)
			}
		}
	}
}

func TestSweepWriteCSVUnknownPolicy(t *testing.T) {
	sw, err := Figure9(context.Background(), 5, fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sw.WriteCSV(&buf, false, []string{"warp"}); err == nil {
		t.Error("unknown policy column accepted")
	}
}

func TestSweepWriteJSONRoundTrip(t *testing.T) {
	sw, err := Figure9(context.Background(), 5, fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sw.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Sweep
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Machine != sw.Machine || len(back.Utilizations) != len(sw.Utilizations) {
		t.Errorf("round trip lost data: %+v", back)
	}
	if back.Normalized["laEDF"][0] != sw.Normalized["laEDF"][0] {
		t.Error("round trip changed values")
	}
}

func TestPowerSweepExport(t *testing.T) {
	ps, err := Figure17(context.Background(), Options{Sets: 2, Seed: 3, Points: []float64{0.5}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ps.WriteCSV(&buf, Figure16Policies); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "utilization,none,") {
		t.Errorf("csv header: %q", buf.String())
	}
	buf.Reset()
	if err := ps.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back PowerSweep
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Unit != ps.Unit {
		t.Errorf("unit lost: %q", back.Unit)
	}
	if err := ps.WriteCSV(&buf, []string{"warp"}); err == nil {
		t.Error("unknown policy column accepted")
	}
}

func TestPowerSweepRender(t *testing.T) {
	ps, err := Figure17(context.Background(), Options{Sets: 2, Seed: 3, Points: []float64{0.5}})
	if err != nil {
		t.Fatal(err)
	}
	out := ps.Render(Figure16Policies)
	for _, want := range []string{"Figure 17", "0.50", "laEDF"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}
