// Package config defines the device configuration model and a CLI-flavored
// configuration language: a line/block oriented dialect close to what WAN
// routers speak, with a parser, a canonical writer, and an incremental
// update merger (the paper's §9 lesson: operators write incremental command
// lines, the verifier needs full snapshots).
//
// Peers are referenced by router name rather than interface IP — a
// deliberate simplification documented in DESIGN.md that preserves every
// behavior the paper's experiments exercise.
package config

import (
	"fmt"
	"sort"

	"hoyan/internal/netaddr"
	"hoyan/internal/policy"
)

// Device is the complete parsed configuration of one router.
//
// A device a Snapshot holds is never edited in place: a change builds a
// new Device (ApplyUpdate, or Clone and edit the copy) and replaces the
// snapshot's entry. Code that compares two snapshots may therefore take
// one *Device held by both as proof that the router did not change.
type Device struct {
	Hostname string
	Vendor   string

	BGP     *BGP
	ISIS    *ISIS
	Statics []StaticRoute

	RoutePolicies map[string]*policy.RoutePolicy
	PrefixLists   map[string]*policy.PrefixList
	ACLs          map[string]*policy.ACL

	// InterfaceACLs binds ACLs to interfaces on the data plane:
	// key "peerName/in" or "peerName/out" → ACL name.
	InterfaceACLs map[string]string

	// Allows holds vet-suppression directives declared in the config
	// ("# hoyan:allow ANALYZER OBJECT REASON..."). Like source lint
	// suppressions, a reason is mandatory — an Allow with an empty
	// Reason is kept for the writer but never suppresses anything.
	Allows []Allow
}

// Allow suppresses one vet analyzer's findings on one config object.
// Object is a ConfigBlocks-style identifier ("route-policy/TAG",
// "neighbor/r2", "static/10.0.0.0/8") or "*" for the whole device.
type Allow struct {
	Analyzer string
	Object   string
	Reason   string
}

// NewDevice returns an empty configuration for hostname.
func NewDevice(hostname, vendor string) *Device {
	return &Device{
		Hostname:      hostname,
		Vendor:        vendor,
		RoutePolicies: map[string]*policy.RoutePolicy{},
		PrefixLists:   map[string]*policy.PrefixList{},
		ACLs:          map[string]*policy.ACL{},
		InterfaceACLs: map[string]string{},
	}
}

// BGP is the BGP process configuration.
type BGP struct {
	AS       uint32
	RouterID uint32
	// LocalAS, when nonzero, is the pre-migration AS number kept toward
	// existing peers (the "local AS" VSB context).
	LocalAS uint32

	Networks     []netaddr.Prefix
	Neighbors    []*Neighbor
	Redistribute []Redistribution
	Aggregates   []Aggregate

	// Preference is the device-wide eBGP route preference (admin
	// distance); zero means the protocol default. The §7.1 outage case is
	// a collision between this and static preferences.
	Preference uint32
}

// Neighbor is one BGP peering.
type Neighbor struct {
	PeerName string
	RemoteAS uint32
	// InPolicy/OutPolicy name route policies in Device.RoutePolicies.
	InPolicy, OutPolicy string
	// Preference overrides eBGP preference for routes from this peer.
	Preference uint32
	// NextHopSelf rewrites next-hop to this router on advertisements.
	NextHopSelf bool
	// RouteReflectorClient marks the peer as an RR client of this device.
	RouteReflectorClient bool
	// AllowASIn permits up to this many occurrences of the local AS in
	// received paths (the "AS loop" VSB area).
	AllowASIn int
	// RemovePrivateAS enables private-AS stripping on egress to this peer
	// (vendor semantics differ — the §1 motivating VSB).
	RemovePrivateAS bool
	// VPN marks an iBGP-over-VPN session (the "self-next-hop" VSB area).
	VPN bool
}

// Redistribution imports routes from another protocol into BGP.
type Redistribution struct {
	From   string // "static", "isis", "connected"
	Policy string // optional route-policy filter
}

// Aggregate is an explicit route-aggregation trigger (§5.3): when all
// component prefixes are present, announce Prefix instead.
type Aggregate struct {
	Prefix     netaddr.Prefix
	Components []netaddr.Prefix
	// SummaryOnly suppresses the components when the aggregate is active
	// (always true in our model, matching the paper's exclusive encoding).
	SummaryOnly bool
}

// ISIS is the IS-IS process configuration.
type ISIS struct {
	Enabled bool
	// Level is 1, 2 or 12 (L1/L2).
	Level int
	// Metrics overrides the topology link weight toward a named neighbor.
	Metrics map[string]uint32
	// Penetrate enables L1→L2 route penetration (modeled via communities
	// per Appendix C).
	Penetrate bool
}

// StaticRoute is a static route to a next-hop router.
type StaticRoute struct {
	Prefix     netaddr.Prefix
	NextHop    string // router name
	Preference uint32 // admin preference; zero = protocol default (1)
}

// Neighbor returns the neighbor entry for a peer, creating it when absent.
func (b *BGP) Neighbor(peer string) *Neighbor {
	for _, n := range b.Neighbors {
		if n.PeerName == peer {
			return n
		}
	}
	n := &Neighbor{PeerName: peer}
	b.Neighbors = append(b.Neighbors, n)
	return n
}

// FindNeighbor returns the neighbor entry without creating it.
func (b *BGP) FindNeighbor(peer string) (*Neighbor, bool) {
	for _, n := range b.Neighbors {
		if n.PeerName == peer {
			return n, true
		}
	}
	return nil, false
}

// RemoveNeighbor deletes a peering, reporting whether it existed.
func (b *BGP) RemoveNeighbor(peer string) bool {
	for i, n := range b.Neighbors {
		if n.PeerName == peer {
			b.Neighbors = append(b.Neighbors[:i], b.Neighbors[i+1:]...)
			return true
		}
	}
	return false
}

// HasNetwork reports whether the BGP process originates p.
func (b *BGP) HasNetwork(p netaddr.Prefix) bool {
	for _, n := range b.Networks {
		if n == p {
			return true
		}
	}
	return false
}

// Clone deep-copies the device configuration, used when computing target
// configurations (online snapshot + proposed update).
func (d *Device) Clone() *Device {
	out := NewDevice(d.Hostname, d.Vendor)
	out.Statics = append([]StaticRoute(nil), d.Statics...)
	out.Allows = append([]Allow(nil), d.Allows...)
	if d.BGP != nil {
		b := *d.BGP
		b.Networks = append([]netaddr.Prefix(nil), d.BGP.Networks...)
		b.Redistribute = append([]Redistribution(nil), d.BGP.Redistribute...)
		b.Aggregates = nil
		for _, a := range d.BGP.Aggregates {
			a.Components = append([]netaddr.Prefix(nil), a.Components...)
			b.Aggregates = append(b.Aggregates, a)
		}
		b.Neighbors = nil
		for _, n := range d.BGP.Neighbors {
			cp := *n
			b.Neighbors = append(b.Neighbors, &cp)
		}
		out.BGP = &b
	}
	if d.ISIS != nil {
		i := *d.ISIS
		i.Metrics = map[string]uint32{}
		for k, v := range d.ISIS.Metrics {
			i.Metrics[k] = v
		}
		out.ISIS = &i
	}
	for name, rp := range d.RoutePolicies {
		cp := *rp
		cp.Terms = append([]policy.Term(nil), rp.Terms...)
		out.RoutePolicies[name] = &cp
	}
	for name, pl := range d.PrefixLists {
		cp := *pl
		cp.Rules = append([]policy.PrefixRule(nil), pl.Rules...)
		out.PrefixLists[name] = &cp
	}
	for name, acl := range d.ACLs {
		cp := *acl
		cp.Rules = append([]policy.ACLRule(nil), acl.Rules...)
		out.ACLs[name] = &cp
	}
	for k, v := range d.InterfaceACLs {
		out.InterfaceACLs[k] = v
	}
	return out
}

// ResolvedPolicy returns the named route policy with prefix lists bound, or
// nil for the empty name. Unknown names return an error — a config bug
// worth surfacing, not masking.
func (d *Device) ResolvedPolicy(name string) (*policy.RoutePolicy, error) {
	if name == "" {
		return nil, nil
	}
	p, ok := d.RoutePolicies[name]
	if !ok {
		return nil, fmt.Errorf("config: %s references unknown route-policy %q", d.Hostname, name)
	}
	return p, nil
}

// PolicyInUse reports whether a neighbor (as its InPolicy or OutPolicy)
// or a redistribution names the route policy — the only places a
// simulation resolves one (ResolvedPolicy). A policy nothing names is
// inert: editing, adding or removing it cannot change a route.
func (d *Device) PolicyInUse(name string) bool {
	if d.BGP == nil || name == "" {
		return false
	}
	for _, n := range d.BGP.Neighbors {
		if n.InPolicy == name || n.OutPolicy == name {
			return true
		}
	}
	for _, r := range d.BGP.Redistribute {
		if r.Policy == name {
			return true
		}
	}
	return false
}

// Validate performs cross-reference checks: policies, prefix lists and
// ACLs referenced by name must exist.
func (d *Device) Validate() error {
	if d.BGP != nil {
		for _, n := range d.BGP.Neighbors {
			for _, pn := range []string{n.InPolicy, n.OutPolicy} {
				if pn == "" {
					continue
				}
				if _, ok := d.RoutePolicies[pn]; !ok {
					return fmt.Errorf("config: %s neighbor %s references unknown route-policy %q", d.Hostname, n.PeerName, pn)
				}
			}
		}
		for _, r := range d.BGP.Redistribute {
			if r.Policy != "" {
				if _, ok := d.RoutePolicies[r.Policy]; !ok {
					return fmt.Errorf("config: %s redistribute %s references unknown route-policy %q", d.Hostname, r.From, r.Policy)
				}
			}
		}
	}
	for _, rp := range d.RoutePolicies {
		for _, term := range rp.Terms {
			if term.Match.PrefixList != nil && term.Match.PrefixList.Name != "" {
				if _, ok := d.PrefixLists[term.Match.PrefixList.Name]; !ok {
					return fmt.Errorf("config: %s route-policy %s references unknown prefix-list %q", d.Hostname, rp.Name, term.Match.PrefixList.Name)
				}
			}
		}
	}
	for key, aclName := range d.InterfaceACLs {
		if _, ok := d.ACLs[aclName]; !ok {
			return fmt.Errorf("config: %s interface binding %s references unknown access-list %q", d.Hostname, key, aclName)
		}
	}
	return nil
}

// ConfigBlocks splits the device configuration into named blocks, each
// representing a single policy or behavior (§6 "Scalability of model
// validation": the tuner selects prefixes covering most blocks). Keys are
// stable identifiers like "bgp", "neighbor/r2", "route-policy/RP1".
func (d *Device) ConfigBlocks() []string {
	var blocks []string
	if d.BGP != nil {
		blocks = append(blocks, "bgp")
		for _, n := range d.BGP.Neighbors {
			blocks = append(blocks, "neighbor/"+n.PeerName)
		}
		for _, a := range d.BGP.Aggregates {
			blocks = append(blocks, "aggregate/"+a.Prefix.String())
		}
		for _, r := range d.BGP.Redistribute {
			blocks = append(blocks, "redistribute/"+r.From)
		}
	}
	if d.ISIS != nil && d.ISIS.Enabled {
		blocks = append(blocks, "isis")
	}
	if len(d.Statics) > 0 {
		blocks = append(blocks, "static")
	}
	for name := range d.RoutePolicies {
		blocks = append(blocks, "route-policy/"+name)
	}
	for name := range d.ACLs {
		blocks = append(blocks, "access-list/"+name)
	}
	sort.Strings(blocks)
	return blocks
}
