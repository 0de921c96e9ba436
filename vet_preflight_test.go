package hoyan

import (
	"os"
	"testing"

	"hoyan/internal/behavior"
	"hoyan/internal/core"
	"hoyan/internal/gen"
	"hoyan/internal/vet"
)

// TestModularPreflightMatchesRefusals pins the sweep-facing half of the
// refusal predictor's accuracy contract: on a plain classed modular
// sweep (no audits, no replays — each unit is one class representative)
// the class count vet.PredictRefusals (V006, what `hoyan vet` and
// /v1/vet report) predicts equals the number of units the core layer
// actually refused. gen.Medium carries the documented
// AllowASLoop echo-route refusals (four classes homed in the
// chord-bottlenecked region); gen.Full — which has loop-tolerant
// acceptors and single-crossing region pairs but no feasible echo
// channel — must come out clean on both sides. gen.Full joins under
// HOYAN_SWEEP_FULL=1, like the other full-WAN sweeps.
func TestModularPreflightMatchesRefusals(t *testing.T) {
	if testing.Short() {
		t.Skip("full modular sweeps under -short")
	}
	cases := []struct {
		name    string
		params  gen.Params
		heavy   bool
		refused int
	}{
		{"medium", gen.Medium(), false, 4},
		{"full", gen.Full(), true, 0},
	}
	for _, tc := range cases {
		if tc.heavy && os.Getenv("HOYAN_SWEEP_FULL") != "1" {
			continue
		}
		t.Run(tc.name, func(t *testing.T) {
			w, err := gen.Generate(tc.params)
			if err != nil {
				t.Fatal(err)
			}
			const k = 3
			rep, err := NetworkFrom(w.Net, w.Snap).Sweep(Options{K: k, Modular: true}, 4)
			if err != nil {
				t.Fatal(err)
			}
			m, err := core.Assemble(w.Net, w.Snap, behavior.TrueProfiles())
			if err != nil {
				t.Fatal(err)
			}
			predicted := vet.PredictRefusals(m, k).RefusedClasses()
			ms := rep.Modular
			if ms == nil {
				t.Fatal("modular sweep reported no ModularStats")
			}
			if ms.Fallback {
				t.Fatalf("modular sweep fell back entirely: %v", ms.Notes)
			}
			if predicted != ms.Refused {
				t.Fatalf("pre-flight predicted %d refusals, engine refused %d (notes: %v)",
					predicted, ms.Refused, ms.Notes)
			}
			if ms.Refused != tc.refused {
				t.Fatalf("engine refused %d classes, want the documented %d (notes: %v)",
					ms.Refused, tc.refused, ms.Notes)
			}
		})
	}
}
