// Package policy implements the match-action tables of the device behavior
// model (Figure 3): route policies (route-maps) applied at control-plane
// ingress/egress, and ACLs applied on the data plane. Both have a
// vendor-controlled default action — the two highest-impact VSBs in
// Table 2 ("default ACL", "default route policy") are exactly about what
// happens when nothing matches.
package policy

import (
	"fmt"

	"hoyan/internal/netaddr"
	"hoyan/internal/route"
	"hoyan/internal/topo"
)

// Action is a terminal decision of a policy term.
type Action uint8

// Actions.
const (
	Permit Action = iota
	Deny
)

// String implements fmt.Stringer.
func (a Action) String() string {
	if a == Permit {
		return "permit"
	}
	return "deny"
}

// PrefixRule is one entry of a prefix list: the route's prefix matches when
// it is covered by Prefix and its length lies in [GE, LE]. GE/LE of 0 mean
// "exactly Prefix.Len".
type PrefixRule struct {
	Action Action
	Prefix netaddr.Prefix
	GE, LE uint8
}

// Matches reports whether p satisfies the rule's pattern.
func (r PrefixRule) Matches(p netaddr.Prefix) bool {
	if !r.Prefix.Covers(p) {
		return false
	}
	ge, le := r.GE, r.LE
	if ge == 0 && le == 0 {
		return p.Len == r.Prefix.Len
	}
	if ge == 0 {
		ge = r.Prefix.Len
	}
	if le == 0 {
		le = ge
	}
	return p.Len >= ge && p.Len <= le
}

// PrefixList is an ordered prefix list; first match wins and an unmatched
// prefix is denied (prefix lists, unlike policies, have a standard default).
type PrefixList struct {
	Name  string
	Rules []PrefixRule
}

// Permits reports whether the list permits p.
func (pl *PrefixList) Permits(p netaddr.Prefix) bool {
	for _, r := range pl.Rules {
		if r.Matches(p) {
			return r.Action == Permit
		}
	}
	return false
}

// CommunityList matches routes carrying (any of) the listed communities.
type CommunityList struct {
	Name   string
	Comms  []route.Community
	Action Action
}

// Matches reports whether the route carries at least one listed community.
func (cl *CommunityList) Matches(r *route.Route) bool {
	for _, c := range cl.Comms {
		if r.HasCommunity(c) {
			return true
		}
	}
	return false
}

// Match is the condition part of a policy term. Zero-valued fields do not
// constrain; all present conditions must hold (conjunction).
type Match struct {
	// PrefixList filters on the route's prefix; nil means any.
	PrefixList *PrefixList
	// Community requires the route to carry this community (the Figure 6
	// scenario filters on community 920). Zero means any.
	Community route.Community
	// NoCommunity requires the route NOT to carry this community — the
	// "if community != 920: deny" policy of Figure 6. Zero disables.
	NoCommunity route.Community
	// ASInPath requires this AS to appear in the AS path. Zero means any.
	ASInPath uint32
	// Protocol restricts to routes of one protocol (for redistribution
	// policies). nil means any.
	Protocol *route.Protocol
}

// Matches evaluates the conjunction on r.
func (m Match) Matches(r *route.Route) bool {
	if m.PrefixList != nil && !m.PrefixList.Permits(r.Prefix) {
		return false
	}
	if m.Community != 0 && !r.HasCommunity(m.Community) {
		return false
	}
	if m.NoCommunity != 0 && r.HasCommunity(m.NoCommunity) {
		return false
	}
	if m.ASInPath != 0 && !r.HasASLoop(m.ASInPath) {
		return false
	}
	if m.Protocol != nil && r.Protocol != *m.Protocol {
		return false
	}
	return true
}

// Set is the action part of a permit term: attribute rewrites applied to
// the route. Nil pointers leave attributes untouched.
type Set struct {
	LocalPref   *uint32
	Weight      *uint32
	MED         *uint32
	AddComms    []route.Community
	DelComms    []route.Community
	ClearComms  bool
	PrependAS   []uint32
	NextHopSelf bool
}

// Apply rewrites r according to the set clauses; self is the node applying
// the policy (for next-hop-self). Every clause that changes a slice of r
// gives r a new one, so a route sharing r's slices is left as it was.
func (s Set) Apply(r *route.Route, self topo.NodeID) {
	if s.LocalPref != nil {
		r.LocalPref = *s.LocalPref
	}
	if s.Weight != nil {
		r.Weight = *s.Weight
	}
	if s.MED != nil {
		r.MED = *s.MED
	}
	if s.ClearComms {
		r.ClearCommunities()
	}
	for _, c := range s.DelComms {
		r.DeleteCommunity(c)
	}
	for _, c := range s.AddComms {
		r.AddCommunity(c)
	}
	for _, as := range s.PrependAS {
		r.PrependAS(as)
	}
	if s.NextHopSelf {
		r.NextHop = self
	}
}

// Term is one clause of a route policy: if the match holds, the action
// applies (and for permits, the sets rewrite the route).
type Term struct {
	Seq    int
	Action Action
	Match  Match
	Set    Set
}

// Disposition is the outcome of running a policy on a route.
type Disposition uint8

// Dispositions. DefaultAction means no term matched: the vendor's default
// decides — the "default route policy" VSB.
const (
	Permitted Disposition = iota
	Denied
	DefaultAction
)

// RoutePolicy is an ordered list of terms; first matching term wins.
type RoutePolicy struct {
	Name  string
	Terms []Term
}

// Run evaluates the policy on r. It returns the (possibly rewritten)
// route, the disposition, and the sequence number of the deciding term
// (-1 when DefaultAction). r is a value whose slices the route package's
// mutators never write in place, so the rewrite leaves the caller's route
// as it was. The caller resolves DefaultAction with the vendor profile.
func (p *RoutePolicy) Run(r route.Route, self topo.NodeID) (route.Route, Disposition, int) {
	if p == nil {
		return r, DefaultAction, -1
	}
	for _, t := range p.Terms {
		if t.Match.Matches(&r) {
			if t.Action == Deny {
				return r, Denied, t.Seq
			}
			t.Set.Apply(&r, self)
			return r, Permitted, t.Seq
		}
	}
	return r, DefaultAction, -1
}

// ACLRule is one data-plane filter entry matching on destination (and
// optionally source) prefix.
type ACLRule struct {
	Seq    int
	Action Action
	Src    netaddr.Prefix // zero value (0.0.0.0/0) matches any
	Dst    netaddr.Prefix
}

// Matches reports whether the packet 5-tuple slice we model (src, dst)
// satisfies the rule.
func (r ACLRule) Matches(src, dst uint32) bool {
	return r.Src.Contains(src) && r.Dst.Contains(dst)
}

// ACL is an ordered data-plane filter; first match wins; an unmatched
// packet falls to the vendor default — the "default ACL" VSB.
type ACL struct {
	Name  string
	Rules []ACLRule
}

// Run returns the disposition for a packet, DefaultAction when no rule
// matches, and the sequence number of the deciding rule (-1 for default).
func (a *ACL) Run(src, dst uint32) (Disposition, int) {
	if a == nil {
		return DefaultAction, -1
	}
	for _, r := range a.Rules {
		if r.Matches(src, dst) {
			if r.Action == Permit {
				return Permitted, r.Seq
			}
			return Denied, r.Seq
		}
	}
	return DefaultAction, -1
}

// String renders the policy name or "<nil>".
func (p *RoutePolicy) String() string {
	if p == nil {
		return "<nil>"
	}
	return fmt.Sprintf("route-policy %s (%d terms)", p.Name, len(p.Terms))
}
