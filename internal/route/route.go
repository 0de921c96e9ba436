// Package route defines the routing-protocol value types: route
// announcements with the full BGP attribute set, AS-path and community
// operations (including the vendor-specific variants from Table 2 of the
// paper), the best-path comparison chain, and the extended-RIB entry the
// behavior-model tuner compares.
package route

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"hoyan/internal/netaddr"
	"hoyan/internal/topo"
)

// Protocol identifies the protocol a route was learned from.
type Protocol uint8

// Protocols, in rough admin-distance order.
const (
	Connected Protocol = iota
	Static
	EBGP
	IBGP
	ISIS
)

// String implements fmt.Stringer.
func (p Protocol) String() string {
	switch p {
	case Connected:
		return "connected"
	case Static:
		return "static"
	case EBGP:
		return "ebgp"
	case IBGP:
		return "ibgp"
	case ISIS:
		return "isis"
	default:
		return fmt.Sprintf("protocol(%d)", uint8(p))
	}
}

// Origin is the BGP origin attribute.
type Origin uint8

// Origin values; lower is preferred.
const (
	OriginIGP Origin = iota
	OriginEGP
	OriginIncomplete
)

// Community is a 32-bit BGP community ("AS:value" packed).
type Community uint32

// MakeCommunity packs as:value.
func MakeCommunity(as, value uint16) Community {
	return Community(uint32(as)<<16 | uint32(value))
}

// String renders as "AS:value".
func (c Community) String() string {
	return fmt.Sprintf("%d:%d", uint32(c)>>16, uint32(c)&0xFFFF)
}

// PrivateASMin and PrivateASMax bound the 16-bit private AS number range
// relevant to the remove-private-AS VSB.
const (
	PrivateASMin = 64512
	PrivateASMax = 65534
)

// IsPrivateAS reports whether an AS number is private.
func IsPrivateAS(as uint32) bool { return as >= PrivateASMin && as <= PrivateASMax }

// Route is one route announcement or RIB entry's attributes. A Route is a
// plain value: copies share their ASPath, Comms and ExtComms slices, so
// nothing writes those slices in place. Every mutator below that changes
// one builds a new slice (copy on write), and a caller that edits a slice
// by hand must do the same. One origin route reaches every simulator
// goroutine, so a write in place would be a data race as well as a wrong
// answer.
type Route struct {
	Prefix   netaddr.Prefix
	Protocol Protocol

	// NextHop is the node packets should be forwarded to; for routes
	// originated locally it is the origin itself.
	NextHop topo.NodeID
	// Origin node that announced the prefix (the gateway router).
	OriginNode topo.NodeID
	// FromNode is the peer this route was learned from (NoNode when
	// locally originated).
	FromNode topo.NodeID

	ASPath    []uint32
	LocalPref uint32
	Weight    uint32
	MED       uint32
	OriginAtt Origin
	Comms     []Community
	ExtComms  []uint64

	// IGPWeight is the additive metric of the IS-IS-as-path-vector
	// reduction (Appendix C); it outranks AS-path length for IS-IS routes.
	IGPWeight uint32

	// AdminPref is the protocol preference configured on the device
	// (what the §7.1 static-vs-eBGP incident is about). Lower wins.
	AdminPref uint32
}

// DefaultLocalPref is the BGP default local preference.
const DefaultLocalPref = 100

// New returns a locally originated route with protocol defaults applied.
func New(p netaddr.Prefix, proto Protocol, origin topo.NodeID) Route {
	return Route{
		Prefix:     p,
		Protocol:   proto,
		NextHop:    origin,
		OriginNode: origin,
		FromNode:   topo.NoNode,
		LocalPref:  DefaultLocalPref,
		AdminPref:  DefaultAdminPref(proto),
	}
}

// DefaultAdminPref returns the conventional administrative preference for a
// protocol (lower preferred): static 1, eBGP 20, iBGP 200, IS-IS 15,
// connected 0.
func DefaultAdminPref(p Protocol) uint32 {
	switch p {
	case Connected:
		return 0
	case Static:
		return 1
	case ISIS:
		return 15
	case EBGP:
		return 20
	case IBGP:
		return 200
	default:
		return 255
	}
}

// PrependAS adds an AS to the front of the path (the sender's AS when
// crossing an eBGP session), in a new slice.
func (r *Route) PrependAS(as uint32) {
	path := make([]uint32, len(r.ASPath)+1)
	path[0] = as
	copy(path[1:], r.ASPath)
	r.ASPath = path
}

// HasASLoop reports whether as already appears in the path — standard BGP
// loop prevention. The "AS loop" VSB of Table 2 is about vendors that allow
// a configured number of repetitions; see AllowsRepetitions.
func (r *Route) HasASLoop(as uint32) bool {
	for _, a := range r.ASPath {
		if a == as {
			return true
		}
	}
	return false
}

// CountAS returns how many times as appears in the path, for the allowas-in
// style VSB.
func (r *Route) CountAS(as uint32) int {
	n := 0
	for _, a := range r.ASPath {
		if a == as {
			n++
		}
	}
	return n
}

// RemovePrivateAll removes every private AS number from the path — Vendor
// A's semantics of remove-private-AS in the paper's §1 example. A path
// with a private AS gets a new slice; one without keeps its own.
func (r *Route) RemovePrivateAll() {
	if !slices.ContainsFunc(r.ASPath, IsPrivateAS) {
		return
	}
	out := make([]uint32, 0, len(r.ASPath)-1)
	for _, a := range r.ASPath {
		if !IsPrivateAS(a) {
			out = append(out, a)
		}
	}
	r.ASPath = out
}

// RemovePrivateLeading removes private AS numbers only until the first
// non-private one — Vendor B's semantics of remove-private-AS. It
// reslices, so it writes no element.
func (r *Route) RemovePrivateLeading() {
	i := 0
	for i < len(r.ASPath) && IsPrivateAS(r.ASPath[i]) {
		i++
	}
	r.ASPath = r.ASPath[i:]
}

// HasCommunity reports community membership.
func (r *Route) HasCommunity(c Community) bool {
	for _, x := range r.Comms {
		if x == c {
			return true
		}
	}
	return false
}

// AddCommunity adds c if absent, keeping the list sorted, in a new slice.
func (r *Route) AddCommunity(c Community) {
	if r.HasCommunity(c) {
		return
	}
	out := make([]Community, len(r.Comms)+1)
	copy(out, r.Comms)
	out[len(r.Comms)] = c
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	r.Comms = out
}

// DeleteCommunity removes c if present, in a new slice; a route without
// c keeps its own.
func (r *Route) DeleteCommunity(c Community) {
	if !r.HasCommunity(c) {
		return
	}
	out := make([]Community, 0, len(r.Comms)-1)
	for _, x := range r.Comms {
		if x != c {
			out = append(out, x)
		}
	}
	r.Comms = out
}

// ClearCommunities drops all (regular) communities — what community-
// stripping vendors do on egress by default (the "(ext) community" VSB,
// Figure 6).
func (r *Route) ClearCommunities() { r.Comms = nil }

// ClearExtCommunities drops all extended communities.
func (r *Route) ClearExtCommunities() { r.ExtComms = nil }

// ASPathString renders the path like "100-200-300" as in the paper's
// figures; empty paths render as "i" (internal).
func (r *Route) ASPathString() string {
	if len(r.ASPath) == 0 {
		return "i"
	}
	parts := make([]string, len(r.ASPath))
	for i, a := range r.ASPath {
		parts[i] = fmt.Sprint(a)
	}
	return strings.Join(parts, "-")
}

// String renders the route compactly for logs and test failures.
func (r Route) String() string {
	return fmt.Sprintf("%s as=%s lp=%d w=%d med=%d nh=%d", r.Prefix, r.ASPathString(), r.LocalPref, r.Weight, r.MED, r.NextHop)
}

// IsBGP reports whether the route was learned via BGP (eBGP or iBGP).
func (r Route) IsBGP() bool { return r.Protocol == EBGP || r.Protocol == IBGP }

// Better reports whether a is strictly preferred over b.
//
// Two BGP routes (eBGP or iBGP) compete by the BGP decision process —
// admin preference does NOT apply inside BGP, which is what makes the
// Figure 1 example work (B's weight rule overrides D's higher local-pref
// even though one route is iBGP-learned):
//
//  1. higher Weight (vendor-local)
//  2. higher LocalPref
//  3. lower IGPWeight (the IS-IS path-vector reduction of Appendix C;
//     ties at 0 for pure BGP)
//  4. shorter AS path
//  5. lower Origin
//  6. lower MED
//  7. eBGP over iBGP
//  8. lower router ID of the announcing node (tie break, supplied by the
//     caller because the route itself doesn't know router IDs)
//
// When at least one route is non-BGP (static, IS-IS, connected), lower
// AdminPref wins first — the protocol-preference comparison behind the
// §7.1 static-vs-eBGP outage — then lower Protocol, then the attribute
// chain for determinism.
func Better(a, b Route, routerIDA, routerIDB uint32) bool {
	if !a.IsBGP() || !b.IsBGP() {
		if a.AdminPref != b.AdminPref {
			return a.AdminPref < b.AdminPref
		}
		if a.Protocol != b.Protocol {
			return a.Protocol < b.Protocol
		}
	}
	if a.Weight != b.Weight {
		return a.Weight > b.Weight
	}
	if a.LocalPref != b.LocalPref {
		return a.LocalPref > b.LocalPref
	}
	if a.IGPWeight != b.IGPWeight {
		return a.IGPWeight < b.IGPWeight
	}
	if len(a.ASPath) != len(b.ASPath) {
		return len(a.ASPath) < len(b.ASPath)
	}
	if a.OriginAtt != b.OriginAtt {
		return a.OriginAtt < b.OriginAtt
	}
	if a.MED != b.MED {
		return a.MED < b.MED
	}
	aEBGP, bEBGP := a.Protocol == EBGP, b.Protocol == EBGP
	if aEBGP != bEBGP {
		return aEBGP
	}
	return routerIDA < routerIDB
}

// SameAttrs reports whether two routes carry identical selection-relevant
// attributes — the ext-RIB comparison the tuner performs (§6). NextHop and
// FromNode are included because self-next-hop VSBs surface there.
func SameAttrs(a, b Route) bool {
	if a.Prefix != b.Prefix || a.Protocol != b.Protocol ||
		a.NextHop != b.NextHop ||
		a.LocalPref != b.LocalPref || a.Weight != b.Weight ||
		a.MED != b.MED || a.OriginAtt != b.OriginAtt ||
		a.IGPWeight != b.IGPWeight || a.AdminPref != b.AdminPref ||
		len(a.ASPath) != len(b.ASPath) || len(a.Comms) != len(b.Comms) ||
		len(a.ExtComms) != len(b.ExtComms) {
		return false
	}
	for i := range a.ASPath {
		if a.ASPath[i] != b.ASPath[i] {
			return false
		}
	}
	for i := range a.Comms {
		if a.Comms[i] != b.Comms[i] {
			return false
		}
	}
	for i := range a.ExtComms {
		if a.ExtComms[i] != b.ExtComms[i] {
			return false
		}
	}
	return true
}

// DiffAttrs names the first selection-relevant attribute on which the two
// routes differ, or "" when SameAttrs holds. The tuner uses the attribute
// name to localize a VSB (§6: "comparing each of the attributes").
func DiffAttrs(a, b Route) string {
	switch {
	case a.Prefix != b.Prefix:
		return "prefix"
	case a.Protocol != b.Protocol:
		return "protocol"
	case a.NextHop != b.NextHop:
		return "next-hop"
	case a.AdminPref != b.AdminPref:
		return "admin-pref"
	case a.Weight != b.Weight:
		return "weight"
	case a.LocalPref != b.LocalPref:
		return "local-pref"
	case a.IGPWeight != b.IGPWeight:
		return "igp-weight"
	case !equalU32(a.ASPath, b.ASPath):
		return "as-path"
	case a.OriginAtt != b.OriginAtt:
		return "origin"
	case a.MED != b.MED:
		return "med"
	case !equalComms(a.Comms, b.Comms):
		return "community"
	case !equalU64(a.ExtComms, b.ExtComms):
		return "ext-community"
	}
	return ""
}

func equalU32(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalComms(a, b []Community) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalU64(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
