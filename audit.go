package hoyan

import (
	"fmt"
	"sort"

	"hoyan/internal/core"
)

// Intent is one operator reachability expectation: the router must hold a
// route to the prefix, surviving up to MinTolerance link failures.
type Intent struct {
	Prefix string
	Router string
	// MinTolerance of 0 means plain reachability.
	MinTolerance int
}

// Violation is one detected intent or invariant breach.
type Violation struct {
	Kind    string // "reachability", "tolerance", "conflict", "equivalence", "racing", "packet"
	Prefix  string
	Router  string
	Details string
}

// String renders the violation for operators.
func (v Violation) String() string {
	return fmt.Sprintf("[%s] prefix=%s router=%s: %s", v.Kind, v.Prefix, v.Router, v.Details)
}

// CheckIntents verifies a list of reachability intents, the update-
// checking workflow of Figure 2: build the target configuration, simulate,
// and compare against what the operator meant.
func (v *Verifier) CheckIntents(intents []Intent) ([]Violation, error) {
	var out []Violation
	for _, in := range intents {
		rep, err := v.RouteReach(in.Prefix, in.Router)
		if err != nil {
			return out, err
		}
		switch {
		case !rep.Reachable:
			out = append(out, Violation{Kind: "reachability", Prefix: in.Prefix, Router: in.Router,
				Details: "no route present"})
		case in.MinTolerance > 0 && rep.MinFailures >= 0 && rep.MinFailures <= in.MinTolerance:
			out = append(out, Violation{Kind: "tolerance", Prefix: in.Prefix, Router: in.Router,
				Details: fmt.Sprintf("breaks with %d failures (%v), need >%d", rep.MinFailures, rep.Witness, in.MinTolerance)})
		}
	}
	return out, nil
}

// AuditConflicts finds prefixes announced by more than one origin — the
// §7.2 IP-conflict audit. Every such prefix is reported, with its
// announcers, whether or not any router selects a "wrong" origin: the
// audit reads the model's originations and simulates nothing.
func (v *Verifier) AuditConflicts() ([]Violation, error) {
	var out []Violation
	for _, p := range v.model.AnnouncedPrefixes() {
		anns := v.model.AnnouncersOf(p)
		if len(anns) < 2 {
			continue
		}
		var names []string
		for _, a := range anns {
			names = append(names, v.model.Net.Node(a).Name)
		}
		sort.Strings(names)
		out = append(out, Violation{Kind: "conflict", Prefix: p.String(),
			Details: fmt.Sprintf("announced by %v", names)})
	}
	return out, nil
}

// AuditGroups checks the equivalent-role property for every redundancy
// group (§7.2): members must hold the same routes.
func (v *Verifier) AuditGroups() ([]Violation, error) {
	groups := v.model.Net.NodeGroups()
	var names []string
	for g := range groups {
		names = append(names, g)
	}
	sort.Strings(names)
	var out []Violation
	for _, g := range names {
		members := groups[g]
		base := members[0]
		for _, other := range members[1:] {
			for _, p := range v.model.AnnouncedPrefixes() {
				res, err := v.result(p)
				if err != nil {
					return out, err
				}
				for _, d := range res.EquivalentRoles(base, other) {
					out = append(out, Violation{
						Kind:   "equivalence",
						Prefix: d.Prefix.String(),
						Router: v.model.Net.Node(other).Name,
						Details: fmt.Sprintf("group %s: %s differs from %s (%s: %s vs %s)",
							g, v.model.Net.Node(other).Name, v.model.Net.Node(base).Name, d.Field, d.B, d.A),
					})
				}
			}
		}
	}
	return out, nil
}

// AuditRacing checks every announced prefix for order-dependent
// convergence. Prefixes with a single origin are skipped (they cannot
// race in our model) unless checkAll is set.
func (v *Verifier) AuditRacing(checkAll bool) ([]Violation, error) {
	var out []Violation
	for _, p := range v.model.AnnouncedPrefixes() {
		if !checkAll && len(v.model.AnnouncersOf(p)) < 2 {
			continue
		}
		rep, err := v.CheckRacing(p.String())
		if err != nil {
			return out, err
		}
		if rep.Ambiguous {
			out = append(out, Violation{Kind: "racing", Prefix: p.String(),
				Details: fmt.Sprintf("%d convergences; ambiguous at %v", rep.Convergences, rep.AmbiguousRouters)})
		}
	}
	return out, nil
}

// AuditPacketGaps finds prefixes whose route is present at a router while
// packets cannot reach the gateway (data-plane ACL blackholes and LPM
// captures; §5.1's route-vs-packet distinction).
func (v *Verifier) AuditPacketGaps(fromRouters []string) ([]Violation, error) {
	var out []Violation
	for _, p := range v.model.AnnouncedPrefixes() {
		anns := v.model.AnnouncersOf(p)
		if len(anns) == 0 {
			continue
		}
		fib, err := v.fib(p)
		if err != nil {
			return out, err
		}
		for _, name := range fromRouters {
			id, err := v.node(name)
			if err != nil {
				return out, err
			}
			res, err := v.result(p)
			if err != nil {
				return out, err
			}
			if !res.Reachable(id, core.AnyRouteTo(p)) {
				continue
			}
			delivered := false
			for _, g := range anns {
				if fib.Reachable(id, 0, p.Addr+1, g) {
					delivered = true
					break
				}
			}
			if !delivered {
				out = append(out, Violation{Kind: "packet", Prefix: p.String(), Router: name,
					Details: "route present but packets cannot reach the gateway"})
			}
		}
	}
	return out, nil
}

// AuditAll runs the whole audit suite (the daily online-auditing loop of
// Figure 2) and returns the union of violations found.
func (v *Verifier) AuditAll(packetFrom []string) ([]Violation, error) {
	var out []Violation
	steps := []func() ([]Violation, error){
		v.AuditConflicts,
		v.AuditGroups,
		func() ([]Violation, error) { return v.AuditRacing(false) },
		func() ([]Violation, error) { return v.AuditPacketGaps(packetFrom) },
	}
	for _, step := range steps {
		vs, err := step()
		if err != nil {
			return out, err
		}
		out = append(out, vs...)
	}
	return out, nil
}
