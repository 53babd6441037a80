package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"rtdvs/internal/core"
	"rtdvs/internal/machine"
	"rtdvs/internal/task"
)

// TestPoliciesPinned pins the scalar results of the policies built on
// the cycle-conserving reservation and the look-ahead walk: one SHA-256
// per policy over the JSON of every run on the grid Machine0/1/2 × five
// execution models × U {0.3, 0.6, 0.9} × seeds 1–10 (N = 6, 1500 ms).
// Float results may differ across architectures (fused multiply-add),
// so the digests are amd64's.
func TestPoliciesPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("policy digests are recorded for amd64, not %s", runtime.GOARCH)
	}
	machines := []*machine.Spec{machine.Machine0(), machine.Machine1(), machine.Machine2()}
	execs := []string{"wcet", "c=0.4", "uniform", "beta=2,5", "bimodal=0.2,0.9,0.3"}
	r := NewRunner()
	for _, name := range []string{
		"ccEDF", "ccEDF+contain", "laEDF", "laEDF+contain",
		"stEDF", "stSelect", "stSelect+contain",
	} {
		h := sha256.New()
		for mi, m := range machines {
			for _, spec := range execs {
				for _, u := range []float64{0.3, 0.6, 0.9} {
					for seed := int64(1); seed <= 10; seed++ {
						label := fmt.Sprintf("%s/m%d/%s/u%v/s%d", name, mi, spec, u, seed)
						g := task.Generator{N: 6, Utilization: u, Rand: rand.New(rand.NewSource(seed))}
						ts, err := g.Generate()
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						exec, err := task.ParseExec(spec, seed)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						p, err := core.ExtendedByName(name)
						if err != nil {
							t.Fatal(err)
						}
						res, err := r.Run(Config{Tasks: ts, Machine: m, Policy: p, Exec: exec, Horizon: 1500})
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						b, err := json.Marshal(res)
						if err != nil {
							t.Fatal(err)
						}
						h.Write(b)
					}
				}
			}
		}
		if got, want := hex.EncodeToString(h.Sum(nil)), policyPinDigests[name]; got != want {
			t.Errorf("%s: results digest %s, want %s", name, got, want)
		}
	}
}

// policyPinDigests are TestPoliciesPinned's recorded digests.
var policyPinDigests = map[string]string{
	"ccEDF":            "087eb88933213257836cbfb3ded855596ca6a4a90508d18f67e2c55d7bac6e86",
	"ccEDF+contain":    "7f53f967a0da666ac24b62954722d59d02000064030ccc0ed31112fbb73de8cc",
	"laEDF":            "82f11f81002c53370232cfa14bb2ddf06eb65b08ed1afba88408cf2b26632dc3",
	"laEDF+contain":    "3b36daa9277ac5fc9a5e32c499506cc08a6a73f7c34a6921954eebec661f7c06",
	"stEDF":            "ec32255a20b285adae195bfb26782ab44178d695c71e43ca0534923d06f9ede8",
	"stSelect":         "faa8d7207b94ce2739bdea40124b1e20ca87ceccf22120fa960b48622e5ce066",
	"stSelect+contain": "0fdf6a9daae5c36906413d6f3d61221602f65e0c6c9b80a498d4a7b54f0145d7",
}
