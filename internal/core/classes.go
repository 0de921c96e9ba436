// Prefix equivalence classes: the sweep-level work reduction of this
// repo's Plankton/ACORN-inspired batching layer. Two announced prefixes
// behave identically — same per-router reachability verdicts, same
// minimal failure counts — whenever the assembled model treats them
// identically modulo renaming. The behavior fingerprint below captures
// exactly the model features whose value can depend on the prefix; equal
// fingerprints mean the per-prefix simulations are isomorphic, so one
// representative simulation answers for the whole class (DESIGN.md,
// "Prefix equivalence classes", lists what may and may not appear here).
package core

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"hoyan/internal/netaddr"
	"hoyan/internal/policy"
)

// PrefixClass is one behavior class of announced prefixes.
type PrefixClass struct {
	// Rep is the representative whose simulation stands in for every
	// member (the first member in trie order).
	Rep netaddr.Prefix
	// Members are all prefixes of the class in trie order, Rep first.
	Members []netaddr.Prefix
	// Fingerprint is the behavior fingerprint shared by the members.
	Fingerprint string
}

// MemberStrings renders the members, Rep first, as prefix strings — the
// form a class takes in a dispatch plan or a session journal.
func (c PrefixClass) MemberStrings() []string {
	out := make([]string, len(c.Members))
	for i, p := range c.Members {
		out[i] = p.String()
	}
	return out
}

// Classes partitions AnnouncedPrefixes() into behavior classes, computed
// once per Model from the assembled model only (no simulation). Classes
// are ordered by the trie order of their representatives.
func (m *Model) Classes() []PrefixClass {
	m.classesOnce.Do(func() {
		fpr := m.newFingerprinter()
		byFP := map[string]int{}
		for _, p := range m.AnnouncedPrefixes() {
			fp := fpr.fingerprint(p)
			if i, ok := byFP[fp]; ok {
				m.classes[i].Members = append(m.classes[i].Members, p)
				continue
			}
			byFP[fp] = len(m.classes)
			m.classes = append(m.classes, PrefixClass{
				Rep: p, Members: []netaddr.Prefix{p}, Fingerprint: fp,
			})
		}
	})
	return m.classes
}

// fingerprinter holds the parts of every prefix's fingerprint that do not
// depend on the prefix, rendered once per model, so that fingerprinting
// each announced prefix costs only the work that depends on it.
type fingerprinter struct {
	m *Model
	// origins and statics are, per node, the routes that may join a
	// simulation, each with its rendered text.
	origins [][]renderedRoute
	statics [][]renderedRoute
	// lists are the prefix lists of every attached policy's terms, in
	// device, policy-name and term order: the fingerprint's permit bits.
	lists []*policy.PrefixList
}

// renderedRoute is a route's prefix and the text the fingerprint writes
// after its prefix token.
type renderedRoute struct {
	prefix netaddr.Prefix
	text   string
}

func (m *Model) newFingerprinter() *fingerprinter {
	origins := m.Origins()
	f := &fingerprinter{
		m:       m,
		origins: make([][]renderedRoute, len(origins)),
		statics: make([][]renderedRoute, len(m.Configs)),
	}
	for id, routes := range origins {
		for _, r := range routes {
			rr := r
			rr.Prefix = netaddr.Prefix{}
			f.origins[id] = append(f.origins[id], renderedRoute{r.Prefix, "=" + rr.String() + " "})
		}
	}
	for id, cfg := range m.Configs {
		for _, sr := range cfg.Statics {
			f.statics[id] = append(f.statics[id], renderedRoute{sr.Prefix, fmt.Sprintf("=%s/%d ", sr.NextHop, sr.Preference)})
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
				if t.Match.PrefixList != nil {
					f.lists = append(f.lists, t.Match.PrefixList)
				}
			}
		}
	}
	return f
}

// fingerprint serializes every prefix-dependent feature of the model for
// p. The prefix itself is written as the token "P" so that renaming a
// class member to another member leaves the fingerprint unchanged; any
// OTHER prefix the simulation of p would touch (family members, overlapping
// origins and statics) is written literally together with its containment
// relation to p, because those routes join p's simulation verbatim.
//
// What is deliberately absent — and must stay absent — is anything the
// engine derives identically for every prefix: session conditions, IGP
// shortest paths, communities, preferences, vendor profile bits that do
// not branch on the prefix. See DESIGN.md for the soundness argument.
func (f *fingerprinter) fingerprint(p netaddr.Prefix) string {
	var b strings.Builder

	// Aggregate coupling: the co-simulated family. For a prefix touched
	// by any aggregate the family has extra members, written literally —
	// which makes such prefixes effectively singleton classes, a safe
	// over-approximation for the rare aggregate-coupled case.
	family := f.m.PrefixFamily(p)
	b.WriteString("fam:")
	for _, q := range family {
		writePrefixToken(&b, q, p)
		b.WriteByte(' ')
	}
	// The redistribute-default VSB branches on IsDefault.
	b.WriteString(";def:")
	b.WriteString(strconv.FormatBool(p.IsDefault()))

	overlapsFamily := func(q netaddr.Prefix) bool {
		for _, fp := range family {
			if fp.Overlaps(q) {
				return true
			}
		}
		return false
	}

	// Origin routes (post-VSB, from the Model cache) and raw statics that
	// would join p's simulation, per node. Routes for p itself are
	// tokenized; overlapping routes for other prefixes appear literally —
	// they are shared context, identical in every member's simulation.
	for id := range f.origins {
		wroteNode := false
		node := func() {
			if !wroteNode {
				b.WriteString(";n")
				b.WriteString(strconv.Itoa(id))
				b.WriteByte(':')
				wroteNode = true
			}
		}
		for _, r := range f.origins[id] {
			if !overlapsFamily(r.prefix) {
				continue
			}
			node()
			writePrefixToken(&b, r.prefix, p)
			b.WriteString(r.text)
		}
		for _, sr := range f.statics[id] {
			if !overlapsFamily(sr.prefix) {
				continue
			}
			node()
			b.WriteString("st")
			writePrefixToken(&b, sr.prefix, p)
			b.WriteString(sr.text)
		}
	}

	// Policy prefix-dependence: of a route-map term's match conditions
	// only the prefix-list looks at the prefix, so the vector of permit
	// bits over every term-bound prefix list — in deterministic device /
	// policy-name / term order — pins how every policy treats p. Only
	// attached policies count (config.Device.PolicyInUse): a policy no
	// neighbor or redistribution names is never evaluated.
	b.WriteString(";pl:")
	for _, pl := range f.lists {
		if pl.Permits(p) {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	return b.String()
}

// writePrefixToken writes q, tokenized as "P" when it IS p, literally
// (with its containment relation to p) otherwise. The relation matters:
// an origin for a supernet of p counts as reachability for p (pattern
// MatchCover), an origin for a subnet does not, so two prefixes with the
// same literal overlap set but opposite relations must not share a class.
func writePrefixToken(b *strings.Builder, q, p netaddr.Prefix) {
	if q == p {
		b.WriteByte('P')
		return
	}
	b.WriteString(q.String())
	if q.Covers(p) {
		b.WriteString("^sup")
	} else if p.Covers(q) {
		b.WriteString("^sub")
	}
}
