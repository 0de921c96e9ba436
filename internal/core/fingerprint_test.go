package core

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"hoyan/internal/gen"
	"hoyan/internal/netaddr"
)

// referenceFingerprint is the behavior fingerprint as it was written
// before its prefix-independent parts were rendered once per model
// (fingerprinter): every origin and static rendered with fmt, and every
// device's attached policy names sorted, for each prefix. It is kept
// here only as the byte reference for TestFingerprintMatchesReference.
func referenceFingerprint(m *Model, p netaddr.Prefix) string {
	var b strings.Builder
	family := m.PrefixFamily(p)
	b.WriteString("fam:")
	for _, q := range family {
		writePrefixToken(&b, q, p)
		b.WriteByte(' ')
	}
	fmt.Fprintf(&b, ";def:%v", p.IsDefault())
	overlapsFamily := func(q netaddr.Prefix) bool {
		for _, fp := range family {
			if fp.Overlaps(q) {
				return true
			}
		}
		return false
	}
	origins := m.Origins()
	for id := 0; id < len(origins); id++ {
		wroteNode := false
		node := func() {
			if !wroteNode {
				fmt.Fprintf(&b, ";n%d:", id)
				wroteNode = true
			}
		}
		for _, r := range origins[id] {
			if !overlapsFamily(r.Prefix) {
				continue
			}
			node()
			writePrefixToken(&b, r.Prefix, p)
			rr := r
			rr.Prefix = netaddr.Prefix{}
			fmt.Fprintf(&b, "=%v ", rr)
		}
		for _, sr := range m.Configs[id].Statics {
			if !overlapsFamily(sr.Prefix) {
				continue
			}
			node()
			b.WriteString("st")
			writePrefixToken(&b, sr.Prefix, p)
			fmt.Fprintf(&b, "=%s/%d ", sr.NextHop, sr.Preference)
		}
	}
	b.WriteString(";pl:")
	for id := 0; id < len(m.Configs); id++ {
		cfg := m.Configs[id]
		if len(cfg.RoutePolicies) == 0 {
			continue
		}
		names := make([]string, 0, len(cfg.RoutePolicies))
		for name := range cfg.RoutePolicies {
			if cfg.PolicyInUse(name) {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		for _, name := range names {
			for _, t := range cfg.RoutePolicies[name].Terms {
				if t.Match.PrefixList == nil {
					continue
				}
				if t.Match.PrefixList.Permits(p) {
					b.WriteByte('1')
				} else {
					b.WriteByte('0')
				}
			}
		}
	}
	return b.String()
}

// sameFingerprints fails unless every announced prefix of m fingerprints
// to the reference bytes, and so does every class's Fingerprint.
func sameFingerprints(t *testing.T, what string, m *Model) {
	t.Helper()
	fpr := m.newFingerprinter()
	for _, p := range m.AnnouncedPrefixes() {
		if got, want := fpr.fingerprint(p), referenceFingerprint(m, p); got != want {
			t.Fatalf("%s, %s: fingerprint\n%q\nwant\n%q", what, p, got, want)
		}
	}
	for _, c := range m.Classes() {
		if want := referenceFingerprint(m, c.Rep); c.Fingerprint != want {
			t.Fatalf("%s, class of %s: fingerprint %q, want %q", what, c.Rep, c.Fingerprint, want)
		}
	}
}

// TestFingerprintMatchesReference pins the fingerprint's bytes, which a
// result store records and a resweep compares, to the function it
// replaced: on the pipeline benchmark's four workload shapes and
// gen.Medium, and after each of 12 gen.Perturb edits of the classes-k2
// shape (policy terms, statics and links, applied cumulatively) on top
// of one that attaches three policies with prefix-list terms to a PE.
func TestFingerprintMatchesReference(t *testing.T) {
	classesK2 := gen.Params{Seed: 1, Regions: 2, CoresPerRegion: 2, PEsPerRegion: 4,
		MANsPerRegion: 1, PeersPerRegion: 8, PrefixesPerPeer: 4, ExtraCoreLinks: 1, WANAS: 64500, PolicyDiversity: 4}
	shapes := []struct {
		name   string
		params gen.Params
	}{
		{"compile-k3", gen.Params{Seed: 3, Regions: 5, CoresPerRegion: 2, PEsPerRegion: 3,
			MANsPerRegion: 1, PeersPerRegion: 3, PrefixesPerPeer: 3, ExtraCoreLinks: 5, WANAS: 64500}},
		{"memo-k1", gen.Params{Seed: 2, Regions: 4, CoresPerRegion: 3, PEsPerRegion: 10,
			MANsPerRegion: 3, PeersPerRegion: 1, PrefixesPerPeer: 2, ExtraCoreLinks: 4, WANAS: 64500}},
		{"classes-k2", classesK2},
		{"small-k1", gen.Small()},
		{"gen.Medium", gen.Medium()},
	}
	for _, sh := range shapes {
		sameFingerprints(t, sh.name, assembleWAN(t, generate(t, sh.params)))
	}

	// Three attached policies with prefix-list terms on one device: the
	// permit bits follow their names' order, not the map's.
	w := generate(t, classesK2)
	pfx := w.Prefixes()
	editConfig(t, w, "pe-r0-0",
		"ip prefix-list PLA permit "+pfx[0].String(),
		"ip prefix-list PLZ permit "+pfx[1].String(),
		"route-policy ZZ permit 10", " match prefix-list PLZ", " set med 5",
		"route-policy AA deny 10", " match prefix-list PLA",
		"router bgp 64500", "neighbor core-r0-0 route-policy ZZ out", "neighbor core-r0-1 route-policy AA out")
	sameFingerprints(t, "two policies attached", assembleWAN(t, w))
	for i, step := range gen.Perturb(w, 5, 12) {
		if step.Kind == "link" {
			a, _ := w.Net.NodeByName(step.Link.A)
			b, _ := w.Net.NodeByName(step.Link.B)
			w.Net.MustAddLink(a.ID, b.ID, step.Link.Weight)
		} else {
			editConfig(t, w, step.Device, step.Lines...)
		}
		sameFingerprints(t, fmt.Sprintf("edit %d (%s)", i, step.Description), assembleWAN(t, w))
	}
}
