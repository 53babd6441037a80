package experiment

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"runtime"
	"testing"

	"rtdvs/internal/machine"
)

// TestPanelsPinned hashes the JSON every panel writes, at one and two
// workers, against digests recorded before the panels shared one worker
// pool: a refactor of the job grid, the pool or a fold may change speed,
// never a bit of any panel.
func TestPanelsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests are recorded on amd64; other architectures may fuse multiply-adds")
	}
	ctx := context.Background()
	type panel interface{ WriteJSON(io.Writer) error }
	for _, workers := range []int{1, 2} {
		o := Options{Sets: 4, Seed: 7, Points: []float64{0.2, 0.5, 0.8, 1.0}, Workers: workers}
		rc := RobustnessConfig{Sets: 4, Seed: 7, Rates: []float64{0, 0.1, 0.25}, Workers: workers}
		gc := GridConfig{Sets: 3, Seed: 7, Workers: workers}
		for _, p := range []struct {
			name, want string
			run        func() (panel, error)
		}{
			{"fig9", "6b5b383fd1152f4a0f47a430607ccd1e2ae7be46d90f98083a68c192cc239941",
				func() (panel, error) { return Figure9(ctx, 10, o) }},
			{"fig10", "7b77fad1a0f6c25c7cdee34f99f0805ce74d1e967a0efda76989e95fbf4143a4",
				func() (panel, error) { return Figure10(ctx, 0.1, o) }},
			{"fig11", "c8666b59b60fc054d78d32355af59c791762b0c4eaecb6b171d0013f82581e10",
				func() (panel, error) { return Figure11(ctx, machine.Machine2(), o) }},
			{"fig12", "d6316a53f65be89b2bf64fa9b6c123ad2b10a3c3d79662ac4348bd34962771b6",
				func() (panel, error) { return Figure12(ctx, 0.5, o) }},
			{"fig13", "038d2b3d083c912bd1f53aaf5ef5dd32c5ba75bd0a890ec562e12ca44081ac15",
				func() (panel, error) { return Figure13(ctx, o) }},
			{"multicore", "6dd89b194679ad26f5cdf9a3a8e6efe3373774837e27cce1cfa98ca69edb434a",
				func() (panel, error) { return Multicore(ctx, 2, o) }},
			{"fig16", "6b85a033ecfd1f51938967a62cbea709d867a1cbf770ed51f87e10000edbc3ac",
				func() (panel, error) { return Figure16(ctx, o) }},
			{"fig17", "31a83eca8eddafe6443ff9f2d340719d0d511e66f889401d03eb3db788a077e7",
				func() (panel, error) { return Figure17(ctx, o) }},
			{"robustness", "e9ddfbbbe3b8fb42f5f54430dad4fc9aa5fa129facc2ee9c16ef9c74ce7770eb",
				func() (panel, error) { return Robustness(ctx, rc) }},
			{"grid", "ff5122e6e95da25714402ee135f7b788ea9be1bb2234a4d680c8f33135822d1d",
				func() (panel, error) { return Grid(ctx, gc) }},
		} {
			res, err := p.run()
			if err != nil {
				t.Fatalf("%s at %d workers: %v", p.name, workers, err)
			}
			h := sha256.New()
			if err := res.WriteJSON(h); err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != p.want {
				t.Errorf("%s at %d workers: JSON digest %s, want %s", p.name, workers, got, p.want)
			}
		}
	}
}
