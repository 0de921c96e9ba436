package core

import (
	"testing"

	"hoyan/internal/behavior"
	"hoyan/internal/gen"
	"hoyan/internal/netaddr"
)

func modelFrom(t testing.TB, p gen.Params) *Model {
	t.Helper()
	w, err := gen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Assemble(w.Net, w.Snap, behavior.TrueProfiles())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestClassesPartition pins the partition contract: every announced prefix
// appears in exactly one class, the representative leads its member list,
// and on the generated WANs (many gateways announcing interchangeable
// /24s) there are strictly fewer classes than prefixes — the whole point
// of the batching layer.
func TestClassesPartition(t *testing.T) {
	m := modelFrom(t, gen.Medium())
	prefixes := m.AnnouncedPrefixes()
	classes := m.Classes()

	seen := map[netaddr.Prefix]int{}
	for ci, c := range classes {
		if len(c.Members) == 0 {
			t.Fatalf("class %d has no members", ci)
		}
		if c.Rep != c.Members[0] {
			t.Fatalf("class %d: rep %s is not the first member %s", ci, c.Rep, c.Members[0])
		}
		for _, p := range c.Members {
			seen[p]++
		}
	}
	if len(seen) != len(prefixes) {
		t.Fatalf("classes cover %d prefixes, announced %d", len(seen), len(prefixes))
	}
	for _, p := range prefixes {
		if seen[p] != 1 {
			t.Fatalf("prefix %s appears in %d classes, want 1", p, seen[p])
		}
	}
	if len(classes) >= len(prefixes) {
		t.Fatalf("no batching: %d classes for %d prefixes", len(classes), len(prefixes))
	}
	t.Logf("gen.Medium: %d prefixes in %d classes", len(prefixes), len(classes))

	// Memoized: a second call returns the identical partition.
	again := m.Classes()
	if len(again) != len(classes) {
		t.Fatal("Classes is not stable across calls")
	}
}

// TestClassesSameFingerprintWithinClass: members of one class share the
// fingerprint, and distinct classes have distinct fingerprints.
func TestClassesSameFingerprintWithinClass(t *testing.T) {
	m := modelFrom(t, gen.Small())
	fpr := m.newFingerprinter()
	fps := map[string]bool{}
	for _, c := range m.Classes() {
		if fps[c.Fingerprint] {
			t.Fatalf("two classes share fingerprint %q", c.Fingerprint)
		}
		fps[c.Fingerprint] = true
		for _, p := range c.Members {
			if got := fpr.fingerprint(p); got != c.Fingerprint {
				t.Fatalf("member %s fingerprint differs from its class", p)
			}
		}
	}
}

// TestClassesPolicyDiversity: the gen knob that makes PE policies treat
// prefix buckets differently must split classes accordingly.
func TestClassesPolicyDiversity(t *testing.T) {
	base := modelFrom(t, gen.Small())
	div := gen.Small()
	div.PolicyDiversity = 3
	diverse := modelFrom(t, div)

	nb, nd := len(base.Classes()), len(diverse.Classes())
	if nd <= nb {
		t.Fatalf("PolicyDiversity=3 did not increase classes: %d -> %d", nb, nd)
	}
	t.Logf("gen.Small classes: %d (diversity 0) -> %d (diversity 3)", nb, nd)
}
