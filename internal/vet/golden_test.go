package vet

import (
	"testing"

	"hoyan/internal/behavior"
	"hoyan/internal/config"
	"hoyan/internal/core"
	"hoyan/internal/gen"
)

func assemble(t *testing.T, w *gen.WAN) *core.Model {
	t.Helper()
	m, err := core.Assemble(w.Net, w.Snap, behavior.TrueProfiles())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func generate(t *testing.T, p gen.Params) *gen.WAN {
	t.Helper()
	w, err := gen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestVetCleanPresets: an unperturbed generated WAN has zero findings
// at every scale — the analyzers' false-positive contract. Info-level
// diagnostics (cutsound's refusal predictions) are allowed; anything
// at SevWarn or above on a clean WAN is an analyzer bug.
func TestVetCleanPresets(t *testing.T) {
	presets := []struct {
		name string
		p    gen.Params
	}{
		{"small", gen.Small()},
		{"medium", gen.Medium()},
		{"full", gen.Full()},
	}
	if !testing.Short() {
		presets = append(presets, struct {
			name string
			p    gen.Params
		}{"xl", gen.XL()})
	}
	for _, tc := range presets {
		t.Run(tc.name, func(t *testing.T) {
			m := assemble(t, generate(t, tc.p))
			diags, err := RunBudget(m, Analyzers(), core.DefaultOptions().K)
			if err != nil {
				t.Fatal(err)
			}
			if n := Findings(diags); n != 0 {
				for _, d := range diags {
					if d.Severity >= SevWarn {
						t.Errorf("unexpected finding: %s", d)
					}
				}
				t.Fatalf("clean %s preset has %d findings, want 0", tc.name, n)
			}
		})
	}
}

// TestVetInjectionMatrix is the seeded-defect golden suite: for every
// injectable defect kind, planting it into a clean gen.Medium WAN makes
// exactly the paired analyzer report at the injected device and object,
// at SevWarn or above.
func TestVetInjectionMatrix(t *testing.T) {
	for _, defect := range gen.Defects() {
		t.Run(string(defect), func(t *testing.T) {
			w := generate(t, gen.Medium())
			inj, err := gen.Inject(w, defect)
			if err != nil {
				t.Fatal(err)
			}
			m := assemble(t, w)
			diags, err := RunBudget(m, Analyzers(), core.DefaultOptions().K)
			if err != nil {
				t.Fatal(err)
			}
			found := false
			for _, d := range diags {
				if d.Analyzer != string(defect) {
					// Collateral findings from other analyzers would mean
					// the injection is not the minimal defect it claims.
					if d.Severity >= SevWarn {
						t.Errorf("collateral %s finding: %s", d.Analyzer, d)
					}
					continue
				}
				if d.Severity < SevWarn {
					continue
				}
				if d.Device == inj.Device && d.Object == inj.Object {
					found = true
				}
			}
			if !found {
				t.Errorf("injected %q (%s) not found at %s %s; diagnostics:", defect, inj.Description, inj.Device, inj.Object)
				for _, d := range diags {
					t.Logf("  %s", d)
				}
			}
		})
	}
}

// TestVetSuppression pins the config-level allow directive: a directive
// with a reason suppresses exactly the named analyzer/object pair, "*"
// widens to the device, and a reason-less directive suppresses nothing
// (the fail-safe direction, mirroring lint's mandatory-reason rule).
func TestVetSuppression(t *testing.T) {
	run := func(t *testing.T, mutate func(w *gen.WAN, inj gen.Injection)) []Diagnostic {
		t.Helper()
		w := generate(t, gen.Medium())
		inj, err := gen.Inject(w, gen.DefectDeadRef)
		if err != nil {
			t.Fatal(err)
		}
		mutate(w, inj)
		diags, err := RunBudget(assemble(t, w), Analyzers(), core.DefaultOptions().K)
		if err != nil {
			t.Fatal(err)
		}
		return diags
	}
	countAt := func(diags []Diagnostic, dev string) int {
		n := 0
		for _, d := range diags {
			if d.Device == dev && d.Severity >= SevWarn {
				n++
			}
		}
		return n
	}

	var device string
	base := run(t, func(w *gen.WAN, inj gen.Injection) { device = inj.Device })
	if countAt(base, device) != 1 {
		t.Fatalf("baseline injection yields %d findings at %s, want 1", countAt(base, device), device)
	}

	exact := run(t, func(w *gen.WAN, inj gen.Injection) {
		w.Snap[inj.Device].Allows = append(w.Snap[inj.Device].Allows,
			config.Allow{Analyzer: "deadref", Object: inj.Object, Reason: "intentional scratch object"})
	})
	if n := countAt(exact, device); n != 0 {
		t.Errorf("exact-object allow left %d findings, want 0", n)
	}

	star := run(t, func(w *gen.WAN, inj gen.Injection) {
		w.Snap[inj.Device].Allows = append(w.Snap[inj.Device].Allows,
			config.Allow{Analyzer: "deadref", Object: "*", Reason: "device-wide exemption"})
	})
	if n := countAt(star, device); n != 0 {
		t.Errorf("star allow left %d findings, want 0", n)
	}

	noReason := run(t, func(w *gen.WAN, inj gen.Injection) {
		w.Snap[inj.Device].Allows = append(w.Snap[inj.Device].Allows,
			config.Allow{Analyzer: "deadref", Object: inj.Object})
	})
	if n := countAt(noReason, device); n != 1 {
		t.Errorf("reason-less allow suppressed the finding (%d left, want 1)", n)
	}

	wrongAnalyzer := run(t, func(w *gen.WAN, inj gen.Injection) {
		w.Snap[inj.Device].Allows = append(w.Snap[inj.Device].Allows,
			config.Allow{Analyzer: "termshadow", Object: "*", Reason: "different analyzer"})
	})
	if n := countAt(wrongAnalyzer, device); n != 1 {
		t.Errorf("wrong-analyzer allow changed findings (%d, want 1)", n)
	}
}

// TestVetAllowRoundTrip: the writer emits allow directives the parser
// reads back, so suppressions survive a snapshot round-trip.
func TestVetAllowRoundTrip(t *testing.T) {
	d := config.NewDevice("r1", "alpha")
	d.Allows = append(d.Allows,
		config.Allow{Analyzer: "deadref", Object: "prefix-list/ORPHAN", Reason: "kept for maintenance window"},
		config.Allow{Analyzer: "termshadow", Object: "*"})
	back, err := config.Parse(config.Write(d))
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Allows) != 2 {
		t.Fatalf("round-trip kept %d allows, want 2", len(back.Allows))
	}
	if back.Allows[0] != d.Allows[0] || back.Allows[1] != d.Allows[1] {
		t.Fatalf("round-trip mangled allows: %+v", back.Allows)
	}
}

// TestVetFindingsSeverity pins the exit-code counting rule: info does
// not count, warn and error do.
func TestVetFindingsSeverity(t *testing.T) {
	diags := []Diagnostic{
		{Severity: SevInfo},
		{Severity: SevWarn},
		{Severity: SevError},
	}
	if n := Findings(diags); n != 2 {
		t.Fatalf("Findings = %d, want 2", n)
	}
}
