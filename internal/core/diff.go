// Model diffing: the change-detection side of incremental re-verification.
// Diff compares two assembled Models field by field and classifies every
// difference into a DeltaItem whose scope bounds which behavior classes
// the change can affect — a bounded set of announced prefixes for the
// kinds we can analyze precisely (policies, prefix-lists, statics,
// origins), a per-device taint match for session attribute changes, and a
// loud full-invalidation fallback for everything whose blast radius the
// tracker cannot bound (topology, IGP, AS numbers, aggregates). The
// catch-all at the end guarantees completeness: any config difference not
// claimed by a tracked comparison produces an Untracked full-invalidation
// item, so a future config field can never silently slip past replay.
package core

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"strings"

	"hoyan/internal/config"
	"hoyan/internal/netaddr"
	"hoyan/internal/policy"
	"hoyan/internal/topo"
)

// DeltaKind classifies one model difference.
type DeltaKind string

// Delta kinds. Kinds marked "full" in their doc line always force full
// invalidation; the others carry a bounded scope.
const (
	DeltaDeviceAdded       DeltaKind = "device-added"        // full
	DeltaDeviceRemoved     DeltaKind = "device-removed"      // full
	DeltaDeviceChanged     DeltaKind = "device-changed"      // node attrs / vendor; full
	DeltaLinkAdded         DeltaKind = "link-added"          // full
	DeltaLinkRemoved       DeltaKind = "link-removed"        // full
	DeltaLinkChanged       DeltaKind = "link-changed"        // weight; full
	DeltaISISChanged       DeltaKind = "isis-changed"        // IGP; full
	DeltaBGPChanged        DeltaKind = "bgp-changed"         // process attrs; scope varies
	DeltaAggregateChanged  DeltaKind = "aggregate-changed"   // family structure; full
	DeltaSessionAdded      DeltaKind = "session-added"       // per-device taint scope
	DeltaSessionRemoved    DeltaKind = "session-removed"     // per-device taint scope
	DeltaSessionChanged    DeltaKind = "session-changed"     // neighbor attrs; taint scope
	DeltaPolicyAdded       DeltaKind = "policy-added"        // per-device taint scope; none if unattached
	DeltaPolicyRemoved     DeltaKind = "policy-removed"      // per-device taint scope; none if unattached
	DeltaPolicyChanged     DeltaKind = "policy-changed"      // bounded prefix scope; none if unattached
	DeltaPrefixListChanged DeltaKind = "prefix-list-changed" // bounded prefix scope
	DeltaStaticChanged     DeltaKind = "static-changed"      // bounded prefix scope
	DeltaOriginChanged     DeltaKind = "origin-changed"      // bounded prefix scope
	DeltaACLChanged        DeltaKind = "acl-changed"         // data plane only; no scope
	DeltaUntracked         DeltaKind = "untracked"           // catch-all; full
)

// DeltaItem is one difference between two models, with its invalidation
// scope. Exactly one of three scopes applies: Full (everything),
// AllPrefixes (every class whose taint contains Device or Peer), or
// Prefixes (every class whose members or universe intersect the set). An
// item with none of the three — nil Prefixes, AllPrefixes and Full both
// false — is informational and invalidates nothing (e.g. a data-plane
// ACL edit, which cannot change a route sweep's reports).
type DeltaItem struct {
	Kind   DeltaKind
	Device string // device name; "" for topology-level items
	Peer   string // session peer, for session kinds
	Detail string
	// Full forces whole-sweep invalidation.
	Full bool
	// AllPrefixes scopes the item to every class whose recorded taint
	// includes Device (or Peer).
	AllPrefixes bool
	// Prefixes is the bounded affected set: announced prefixes whose
	// treatment by the changed object can differ between the models.
	Prefixes []netaddr.Prefix
}

func (it DeltaItem) String() string {
	scope := "no-impact"
	switch {
	case it.Full:
		scope = "full"
	case it.AllPrefixes:
		scope = "device-taint"
	case len(it.Prefixes) > 0:
		scope = fmt.Sprintf("%d prefixes", len(it.Prefixes))
	}
	at := it.Device
	if it.Peer != "" {
		at += "->" + it.Peer
	}
	if at == "" {
		at = "topology"
	}
	return fmt.Sprintf("%s @ %s [%s] %s", it.Kind, at, scope, it.Detail)
}

// ModelDelta is the structured difference between two models.
type ModelDelta struct {
	Items []DeltaItem
	// DevicesCompared counts the routers present in both models whose
	// configurations Diff compared in full: every one the models do not
	// share as one *config.Device.
	DevicesCompared int
}

// Empty reports whether the models are indistinguishable to the tracker.
func (d *ModelDelta) Empty() bool { return len(d.Items) == 0 }

// Full reports whether any item forces full invalidation.
func (d *ModelDelta) Full() bool {
	for _, it := range d.Items {
		if it.Full {
			return true
		}
	}
	return false
}

// Kinds returns the delta-kind histogram.
func (d *ModelDelta) Kinds() map[string]int {
	out := map[string]int{}
	for _, it := range d.Items {
		out[string(it.Kind)]++
	}
	return out
}

func (d *ModelDelta) String() string {
	if d.Empty() {
		return "model delta: empty"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "model delta: %d items\n", len(d.Items))
	for _, it := range d.Items {
		fmt.Fprintf(&b, "  %s\n", it)
	}
	return b.String()
}

func (d *ModelDelta) add(it DeltaItem) { d.Items = append(d.Items, it) }

// InvalidationStats summarizes one incremental sweep's cache behavior —
// the counters the /v1/classes endpoint and SweepReport expose.
type InvalidationStats struct {
	// ClassesDirty is how many behavior classes were re-simulated.
	ClassesDirty int
	// ClassesReplayed is how many replayed their cached report.
	ClassesReplayed int
	// ClassesRematched is how many of the replayed classes replayed a
	// baseline record whose members differ from theirs: a class the edit
	// split or merged, answered by the record of a member it left alone.
	ClassesRematched int
	// ReplaysAudited is how many replayed classes were re-simulated
	// anyway (audit sampling) and diffed against the cached report.
	ReplaysAudited int
	// DevicesCompared is ModelDelta.DevicesCompared of the triggering
	// diff: the devices an edit replaced when the baseline store is the
	// one this process captured, every device of a store loaded off disk.
	DevicesCompared int
	// DeltaKinds is the delta-kind histogram of the triggering diff.
	DeltaKinds map[string]int
	// FullInvalidation records the conservative fallback: the delta
	// contained an item whose blast radius could not be bounded.
	FullInvalidation bool
	// Notes carries loud explanations for conservative decisions.
	Notes []string
}

// Diff compares two assembled models and returns the classified delta.
// Both models are read-only; Diff may populate their lazy caches
// (origins, announced prefixes) but never mutates configuration.
//
// What both models share is not compared: a router whose old and new
// configuration are the same *config.Device, and the topology when both
// models hold the same *topo.Network. Neither is ever edited in place
// once a model holds it (config.Device, topo.Network), so sharing it
// proves it unchanged.
func Diff(old, new *Model) *ModelDelta {
	d := &ModelDelta{}

	// Candidate prefixes for bounded scopes: everything either model
	// announces plus the aggregate closures (universe members that are
	// not themselves announced).
	cand := candidatePrefixes(old, new)
	overlapping := func(q netaddr.Prefix) []netaddr.Prefix {
		var out []netaddr.Prefix
		for _, p := range cand {
			if p.Overlaps(q) {
				out = append(out, p)
			}
		}
		return out
	}

	topoIdentical := old.Net == new.Net || diffTopology(old, new, d)

	// Devices present in both topologies: compare configurations.
	for _, node := range new.Net.Nodes() {
		oldNode, ok := old.Net.NodeByName(node.Name)
		if !ok {
			continue // reported by diffTopology
		}
		oc, nc := old.Configs[oldNode.ID], new.Configs[node.ID]
		if oc == nc {
			continue
		}
		d.DevicesCompared++
		before := len(d.Items)
		diffDevice(oc, nc, node.Name, cand, overlapping, d)
		// Completeness catch-all: a config difference none of the tracked
		// comparisons claimed means the tracker is out of date — fall
		// back to full invalidation rather than replaying stale reports.
		if len(d.Items) == before && config.Write(oc) != config.Write(nc) {
			d.add(DeltaItem{Kind: DeltaUntracked, Device: node.Name, Full: true,
				Detail: "configurations differ but no tracked comparison claimed the change"})
		}
	}

	// Origin-level diff (network statements, redistributed statics, the
	// model's ground truth for what enters BGP). Needs aligned node IDs,
	// which only holds when the topologies match.
	if topoIdentical {
		diffOrigins(old, new, overlapping, d)
	}
	return d
}

// candidatePrefixes is the union of announced prefixes and aggregate
// prefixes/components of both models, sorted and deduplicated. Class
// universes only ever contain prefixes from this set.
func candidatePrefixes(old, new *Model) []netaddr.Prefix {
	seen := map[netaddr.Prefix]bool{}
	var out []netaddr.Prefix
	addAll := func(m *Model) {
		for _, p := range m.AnnouncedPrefixes() {
			if !seen[p] {
				seen[p] = true
				out = append(out, p)
			}
		}
		for _, cfg := range m.Configs {
			if cfg.BGP == nil {
				continue
			}
			for _, agg := range cfg.BGP.Aggregates {
				for _, q := range append([]netaddr.Prefix{agg.Prefix}, agg.Components...) {
					if !seen[q] {
						seen[q] = true
						out = append(out, q)
					}
				}
			}
		}
	}
	addAll(old)
	addAll(new)
	sortPrefixes(out)
	return out
}

// diffTopology compares node and link sets by name. Any difference is a
// full invalidation: topology feeds the IGP, session conditions, and the
// link-aliveness variable space itself. Returns true when identical.
func diffTopology(old, new *Model, d *ModelDelta) bool {
	before := len(d.Items)
	oldNodes := map[string]bool{}
	for _, n := range old.Net.Nodes() {
		oldNodes[n.Name] = true
		nn, ok := new.Net.NodeByName(n.Name)
		if !ok {
			d.add(DeltaItem{Kind: DeltaDeviceRemoved, Device: n.Name, Full: true})
			continue
		}
		if n.AS != nn.AS || n.Vendor != nn.Vendor || n.SKU != nn.SKU || n.Role != nn.Role ||
			n.Region != nn.Region || n.RouterID != nn.RouterID || n.Loopback != nn.Loopback ||
			n.Group != nn.Group {
			d.add(DeltaItem{Kind: DeltaDeviceChanged, Device: n.Name, Full: true,
				Detail: "node attributes differ"})
		}
	}
	for _, n := range new.Net.Nodes() {
		if !oldNodes[n.Name] {
			d.add(DeltaItem{Kind: DeltaDeviceAdded, Device: n.Name, Full: true})
		}
	}

	// Links as a weight multiset per unordered endpoint pair.
	linkKey := func(m *Model, a, b string) string {
		if b < a {
			a, b = b, a
		}
		return a + "~" + b
	}
	weights := func(m *Model) map[string][]uint32 {
		out := map[string][]uint32{}
		for _, l := range m.Net.Links() {
			k := linkKey(m, m.Net.Node(l.A).Name, m.Net.Node(l.B).Name)
			out[k] = append(out[k], l.Weight)
		}
		for _, ws := range out {
			sort.Slice(ws, func(i, j int) bool { return ws[i] < ws[j] })
		}
		return out
	}
	// Delta items land in reports and replay plans verbatim, so emit
	// them in sorted endpoint-pair order, never map order.
	ow, nw := weights(old), weights(new)
	for _, k := range sortedKeys(ow) {
		ws := ow[k]
		nws, ok := nw[k]
		switch {
		case !ok:
			d.add(DeltaItem{Kind: DeltaLinkRemoved, Full: true, Detail: k})
		case fmt.Sprint(ws) != fmt.Sprint(nws):
			d.add(DeltaItem{Kind: DeltaLinkChanged, Full: true,
				Detail: fmt.Sprintf("%s weights %v -> %v", k, ws, nws)})
		}
	}
	for _, k := range sortedKeys(nw) {
		if _, ok := ow[k]; !ok {
			d.add(DeltaItem{Kind: DeltaLinkAdded, Full: true, Detail: k})
		}
	}
	return len(d.Items) == before
}

// diffDevice compares one device's old and new configurations.
func diffDevice(oc, nc *config.Device, name string, cand []netaddr.Prefix,
	overlapping func(netaddr.Prefix) []netaddr.Prefix, d *ModelDelta) {
	if oc.Vendor != nc.Vendor {
		d.add(DeltaItem{Kind: DeltaDeviceChanged, Device: name, Full: true,
			Detail: fmt.Sprintf("vendor %q -> %q (behavior profile)", oc.Vendor, nc.Vendor)})
	}
	if isisSig(oc.ISIS) != isisSig(nc.ISIS) {
		d.add(DeltaItem{Kind: DeltaISISChanged, Device: name, Full: true,
			Detail: "IGP configuration differs"})
	}
	diffBGP(oc.BGP, nc.BGP, name, d)
	diffStatics(oc, nc, name, overlapping, d)
	diffPolicies(oc, nc, name, cand, d)
	diffPrefixLists(oc, nc, name, cand, d)

	if aclSig(oc) != aclSig(nc) {
		d.add(DeltaItem{Kind: DeltaACLChanged, Device: name,
			Detail: "data-plane filters only; route sweep reports unaffected"})
	}
}

func isisSig(i *config.ISIS) string {
	if i == nil {
		return "<nil>"
	}
	var ms []string
	for k, v := range i.Metrics {
		ms = append(ms, fmt.Sprintf("%s=%d", k, v))
	}
	sort.Strings(ms)
	return fmt.Sprintf("%v/%d/%v/%v", i.Enabled, i.Level, i.Penetrate, ms)
}

func aclSig(c *config.Device) string {
	var parts []string
	for name, acl := range c.ACLs {
		parts = append(parts, fmt.Sprintf("%s:%v", name, acl.Rules))
	}
	for k, v := range c.InterfaceACLs {
		parts = append(parts, k+"->"+v)
	}
	sort.Strings(parts)
	return strings.Join(parts, ";")
}

// diffBGP compares the BGP process. Networks, redistribution and
// aggregates are deliberately excluded from the attribute signature:
// network statements and redistribution only act through the origin
// lists, which diffOrigins compares at the model level with bounded
// scope, and aggregates get their own full-invalidation item.
func diffBGP(ob, nb *config.BGP, name string, d *ModelDelta) {
	if (ob == nil) != (nb == nil) {
		d.add(DeltaItem{Kind: DeltaBGPChanged, Device: name, Full: true,
			Detail: "BGP process enabled/disabled (report row set changes)"})
		return
	}
	if ob == nil {
		return
	}
	if ob.AS != nb.AS || ob.LocalAS != nb.LocalAS || ob.RouterID != nb.RouterID {
		d.add(DeltaItem{Kind: DeltaBGPChanged, Device: name, Full: true,
			Detail: "AS/router-id identity differs (session types and tie-breaks shift)"})
	}
	if ob.Preference != nb.Preference {
		d.add(DeltaItem{Kind: DeltaBGPChanged, Device: name, AllPrefixes: true,
			Detail: fmt.Sprintf("eBGP preference %d -> %d", ob.Preference, nb.Preference)})
	}
	if fmt.Sprint(ob.Redistribute) != fmt.Sprint(nb.Redistribute) ||
		fmt.Sprint(ob.Networks) != fmt.Sprint(nb.Networks) {
		// Claimed here for completeness; the behavioral impact is exactly
		// the origin-list change diffOrigins scopes per prefix.
		d.add(DeltaItem{Kind: DeltaBGPChanged, Device: name,
			Detail: "origination inputs differ (impact tracked by origin-changed items)"})
	}
	if fmt.Sprint(ob.Aggregates) != fmt.Sprint(nb.Aggregates) {
		d.add(DeltaItem{Kind: DeltaAggregateChanged, Device: name, Full: true,
			Detail: "aggregation couples prefix families; cannot bound the blast radius"})
	}
	diffNeighbors(ob, nb, name, d)
}

func neighborSig(n *config.Neighbor) string {
	return fmt.Sprintf("%d|%s|%s|%d|%v|%v|%d|%v|%v", n.RemoteAS, n.InPolicy, n.OutPolicy,
		n.Preference, n.NextHopSelf, n.RouteReflectorClient, n.AllowASIn, n.RemovePrivateAS, n.VPN)
}

func diffNeighbors(ob, nb *config.BGP, name string, d *ModelDelta) {
	oldBy := map[string]*config.Neighbor{}
	for _, n := range ob.Neighbors {
		oldBy[n.PeerName] = n
	}
	seen := map[string]bool{}
	for _, n := range nb.Neighbors {
		seen[n.PeerName] = true
		o, ok := oldBy[n.PeerName]
		switch {
		case !ok:
			d.add(DeltaItem{Kind: DeltaSessionAdded, Device: name, Peer: n.PeerName, AllPrefixes: true})
		case neighborSig(o) != neighborSig(n):
			d.add(DeltaItem{Kind: DeltaSessionChanged, Device: name, Peer: n.PeerName, AllPrefixes: true,
				Detail: "neighbor attributes differ"})
		}
	}
	for _, peer := range sortedKeys(oldBy) {
		if !seen[peer] {
			d.add(DeltaItem{Kind: DeltaSessionRemoved, Device: name, Peer: peer, AllPrefixes: true})
		}
	}
}

// sortedKeys returns the map's string keys in sorted order, so delta
// emission never leaks map iteration order into reports or replay
// plans.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func diffStatics(oc, nc *config.Device, name string,
	overlapping func(netaddr.Prefix) []netaddr.Prefix, d *ModelDelta) {
	count := func(srs []config.StaticRoute) map[string]int {
		out := map[string]int{}
		for _, sr := range srs {
			out[fmt.Sprintf("%s|%s|%d", sr.Prefix, sr.NextHop, sr.Preference)]++
		}
		return out
	}
	oldC, newC := count(oc.Statics), count(nc.Statics)
	changed := map[netaddr.Prefix]bool{}
	note := func(srs []config.StaticRoute, other map[string]int) {
		for _, sr := range srs {
			k := fmt.Sprintf("%s|%s|%d", sr.Prefix, sr.NextHop, sr.Preference)
			if other[k] == 0 {
				changed[sr.Prefix] = true
			} else {
				other[k]--
			}
		}
	}
	note(oc.Statics, cloneCounts(newC))
	note(nc.Statics, cloneCounts(oldC))
	if len(changed) == 0 {
		return
	}
	affected := map[netaddr.Prefix]bool{}
	var details []string
	for q := range changed {
		details = append(details, q.String())
		for _, p := range overlapping(q) {
			affected[p] = true
		}
	}
	sort.Strings(details)
	d.add(DeltaItem{Kind: DeltaStaticChanged, Device: name, Prefixes: prefixSet(affected),
		Detail: "statics for " + strings.Join(details, " ")})
}

func cloneCounts(m map[string]int) map[string]int {
	out := make(map[string]int, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// diffPolicies compares route policies by name. A policy no neighbor and
// no redistribution names in either config (config.Device.PolicyInUse)
// is never evaluated, so adding, removing or editing it yields an item
// with no scope. For an attached policy present in both configs the
// comparison is per candidate prefix: the sequence of terms relevant to
// p (terms whose prefix-list permits p, or have none) with their full
// match/set content. Policy evaluation is first-match over exactly that
// sequence, and no other match condition reads the prefix, so equal
// sequences mean the old and new policies are the same function on
// routes carrying p — the change cannot affect p's class.
func diffPolicies(oc, nc *config.Device, name string, cand []netaddr.Prefix, d *ModelDelta) {
	names := map[string]bool{}
	for n := range oc.RoutePolicies {
		names[n] = true
	}
	for n := range nc.RoutePolicies {
		names[n] = true
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	for _, pn := range sorted {
		op, ohas := oc.RoutePolicies[pn]
		np, nhas := nc.RoutePolicies[pn]
		switch {
		case !oc.PolicyInUse(pn) && !nc.PolicyInUse(pn):
			kind := DeltaPolicyChanged
			switch {
			case !nhas:
				kind = DeltaPolicyRemoved
			case !ohas:
				kind = DeltaPolicyAdded
			case op == np || policySig(op) == policySig(np):
				continue
			}
			d.add(DeltaItem{Kind: kind, Device: name,
				Detail: pn + " is named by no neighbor or redistribution"})
		case ohas && !nhas:
			d.add(DeltaItem{Kind: DeltaPolicyRemoved, Device: name, AllPrefixes: true, Detail: pn})
		case !ohas && nhas:
			d.add(DeltaItem{Kind: DeltaPolicyAdded, Device: name, AllPrefixes: true, Detail: pn})
		default:
			var affected []netaddr.Prefix
			osigs, nsigs := termSigs(op), termSigs(np)
			var ob, nb []byte
			for _, p := range cand {
				ob, nb = appendRelevantSig(ob[:0], op, osigs, p), appendRelevantSig(nb[:0], np, nsigs, p)
				if !bytes.Equal(ob, nb) {
					affected = append(affected, p)
				}
			}
			if len(affected) > 0 {
				d.add(DeltaItem{Kind: DeltaPolicyChanged, Device: name, Prefixes: affected,
					Detail: fmt.Sprintf("%s treats %d candidate prefixes differently", pn, len(affected))})
			}
		}
	}
}

// termSigs formats every term of pol once (writeTermSig), in term order.
func termSigs(pol *policy.RoutePolicy) []string {
	sigs := make([]string, len(pol.Terms))
	var b strings.Builder
	for i, t := range pol.Terms {
		b.Reset()
		writeTermSig(&b, t)
		sigs[i] = b.String()
	}
	return sigs
}

// appendRelevantSig appends to buf the signatures (sigs, from termSigs)
// of the terms of pol that can fire on a route for prefix p, in
// evaluation order, with every prefix-independent match and set field
// included literally.
func appendRelevantSig(buf []byte, pol *policy.RoutePolicy, sigs []string, p netaddr.Prefix) []byte {
	for i, t := range pol.Terms {
		if t.Match.PrefixList != nil && !t.Match.PrefixList.Permits(p) {
			continue
		}
		buf = append(buf, sigs[i]...)
	}
	return buf
}

// policySig serializes every term of pol, its prefix-list rules
// included: equal signatures mean the same policy.
func policySig(pol *policy.RoutePolicy) string {
	var b strings.Builder
	for _, t := range pol.Terms {
		if pl := t.Match.PrefixList; pl != nil {
			fmt.Fprintf(&b, "pl%s%v/", pl.Name, pl.Rules)
		}
		writeTermSig(&b, t)
	}
	return b.String()
}

// writeTermSig writes a term's sequence, action and every match and set
// field except its prefix list.
func writeTermSig(b *strings.Builder, t policy.Term) {
	m, s := t.Match, t.Set
	fmt.Fprintf(b, "%d/%v:c%v,nc%v,as%d", t.Seq, t.Action, m.Community, m.NoCommunity, m.ASInPath)
	if m.Protocol != nil {
		fmt.Fprintf(b, ",pr%v", *m.Protocol)
	}
	if s.LocalPref != nil {
		fmt.Fprintf(b, ",lp%d", *s.LocalPref)
	}
	if s.Weight != nil {
		fmt.Fprintf(b, ",w%d", *s.Weight)
	}
	if s.MED != nil {
		fmt.Fprintf(b, ",med%d", *s.MED)
	}
	fmt.Fprintf(b, ",ac%v,dc%v,cc%v,pp%v,nhs%v;",
		s.AddComms, s.DelComms, s.ClearComms, s.PrependAS, s.NextHopSelf)
}

// diffPrefixLists reports prefix-list rule edits with the set of
// candidate prefixes whose verdict flips. Lists act only through
// route-policy terms, whose relevant-sequence comparison already folds
// in each list's verdicts, so these items mostly refine the histogram;
// an added or removed list is inert until a policy references it (which
// surfaces as a policy delta of its own).
func diffPrefixLists(oc, nc *config.Device, name string, cand []netaddr.Prefix, d *ModelDelta) {
	names := map[string]bool{}
	for n := range oc.PrefixLists {
		names[n] = true
	}
	for n := range nc.PrefixLists {
		names[n] = true
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	for _, ln := range sorted {
		ol, ohas := oc.PrefixLists[ln]
		nl, nhas := nc.PrefixLists[ln]
		switch {
		case ohas != nhas:
			d.add(DeltaItem{Kind: DeltaPrefixListChanged, Device: name,
				Detail: ln + " added/removed (inert unless a policy references it)"})
		case !slices.Equal(ol.Rules, nl.Rules):
			var affected []netaddr.Prefix
			for _, p := range cand {
				if ol.Permits(p) != nl.Permits(p) {
					affected = append(affected, p)
				}
			}
			d.add(DeltaItem{Kind: DeltaPrefixListChanged, Device: name, Prefixes: affected,
				Detail: fmt.Sprintf("%s flips %d candidate prefixes", ln, len(affected))})
		}
	}
}

// diffOrigins compares the models' computed per-device origin lists —
// the ground truth for network statements and redistribution. A changed
// origin for prefix q can only influence simulations whose universe
// overlaps q. A device's origins follow from its configuration, its node
// and its vendor profile, so on identical topologies under one behavior
// registry (an incremental plan refuses a store captured under another)
// a device both models share cannot have changed them.
func diffOrigins(old, new *Model, overlapping func(netaddr.Prefix) []netaddr.Prefix, d *ModelDelta) {
	oo, no := old.Origins(), new.Origins()
	for id := range no {
		if old.Configs[id] == new.Configs[id] {
			continue
		}
		oldC := map[string]int{}
		for _, r := range oo[id] {
			oldC[fmt.Sprintf("%v", r)]++
		}
		newC := map[string]int{}
		for _, r := range no[id] {
			newC[fmt.Sprintf("%v", r)]++
		}
		changed := map[netaddr.Prefix]bool{}
		for _, r := range oo[id] {
			if newC[fmt.Sprintf("%v", r)] == 0 {
				changed[r.Prefix] = true
			}
		}
		for _, r := range no[id] {
			if oldC[fmt.Sprintf("%v", r)] == 0 {
				changed[r.Prefix] = true
			}
		}
		if len(changed) == 0 {
			continue
		}
		affected := map[netaddr.Prefix]bool{}
		var details []string
		for q := range changed {
			details = append(details, q.String())
			affected[q] = true
			for _, p := range overlapping(q) {
				affected[p] = true
			}
		}
		sort.Strings(details)
		d.add(DeltaItem{Kind: DeltaOriginChanged, Device: new.Net.Node(topo.NodeID(id)).Name,
			Prefixes: prefixSet(affected),
			Detail:   "origins for " + strings.Join(details, " ")})
	}
}

func prefixSet(m map[netaddr.Prefix]bool) []netaddr.Prefix {
	out := make([]netaddr.Prefix, 0, len(m))
	for p := range m {
		out = append(out, p)
	}
	sortPrefixes(out)
	return out
}
