package behavior

import (
	"fmt"

	"hoyan/internal/config"
	"hoyan/internal/policy"
	"hoyan/internal/route"
	"hoyan/internal/topo"
)

// SessionType classifies a BGP peering.
type SessionType uint8

// Session types.
const (
	SessEBGP SessionType = iota
	SessIBGP
)

// Verdict is the outcome of a pipeline stage.
type Verdict uint8

// Verdicts. DropPolicy counts toward the "policy" pruning category of
// Figure 12.
const (
	Pass Verdict = iota
	DropPolicy
	DropLoop
	DropNoNeighbor
)

// String implements fmt.Stringer.
func (v Verdict) String() string {
	switch v {
	case Pass:
		return "pass"
	case DropPolicy:
		return "drop-policy"
	case DropLoop:
		return "drop-loop"
	case DropNoNeighbor:
		return "drop-no-neighbor"
	default:
		return fmt.Sprintf("verdict(%d)", uint8(v))
	}
}

// Stage names the pipeline stage that decided a verdict; the tuner uses it
// to localize VSBs "between ingress policy and route selector" (§6).
type Stage string

// Pipeline stages.
const (
	StageIngressPolicy Stage = "ingress-policy"
	StageLoopCheck     Stage = "as-loop-check"
	StageEgressPolicy  Stage = "egress-policy"
	StageEgressRewrite Stage = "egress-rewrite"
	StageRedistribute  Stage = "redistribute"
	StageDataACL       Stage = "data-acl"
)

// Device is the behavior model of one router: configuration interpreted
// under a vendor profile. It is pure — all methods are read-only with
// respect to the Device, so one Device serves concurrent simulations.
type Device struct {
	Node *topo.Node
	Cfg  *config.Device
	Prof Profile
	// NodeNamer resolves node IDs to hostnames for route-reflector
	// decisions; the network assembler sets it on every device.
	NodeNamer func(topo.NodeID) string
}

// New builds a behavior model. The profile comes from whichever registry
// the caller trusts (model-under-test or ground truth).
func New(node *topo.Node, cfg *config.Device, prof Profile) *Device {
	return &Device{Node: node, Cfg: cfg, Prof: prof}
}

// AS returns the device's (current) AS number.
func (d *Device) AS() uint32 {
	if d.Cfg.BGP != nil {
		return d.Cfg.BGP.AS
	}
	return d.Node.AS
}

// Neighbor returns the BGP neighbor config toward a peer name.
func (d *Device) Neighbor(peer string) (*config.Neighbor, bool) {
	if d.Cfg.BGP == nil {
		return nil, false
	}
	return d.Cfg.BGP.FindNeighbor(peer)
}

// SessionTypeTo classifies the session toward a peer device by comparing
// AS numbers.
func (d *Device) SessionTypeTo(peer *Device) SessionType {
	if d.AS() == peer.AS() {
		return SessIBGP
	}
	return SessEBGP
}

// eBGPPreference resolves the admin preference for routes received from a
// neighbor: per-neighbor preference, then process preference, then the
// protocol default. This resolution order is what made the §7.1 static-
// preference outage hard to spot by eye.
func (d *Device) eBGPPreference(n *config.Neighbor) uint32 {
	if n != nil && n.Preference != 0 {
		return n.Preference
	}
	if d.Cfg.BGP != nil && d.Cfg.BGP.Preference != 0 {
		return d.Cfg.BGP.Preference
	}
	return route.DefaultAdminPref(route.EBGP)
}

// StaticPreference resolves a static route's admin preference.
func StaticPreference(sr config.StaticRoute) uint32 {
	if sr.Preference != 0 {
		return sr.Preference
	}
	return route.DefaultAdminPref(route.Static)
}

// IngressResult carries the decision and localization data of an ingress
// run.
type IngressResult struct {
	Route   route.Route
	Verdict Verdict
	Stage   Stage
	// TermSeq is the policy term that decided, -1 for vendor default.
	TermSeq int
	// VendorDefaulted is true when the decision came from the vendor's
	// default action rather than an explicit term — the signature of the
	// two "default" VSBs.
	VendorDefaulted bool
}

// ProcessIngress runs the control-plane ingress pipeline on a route
// received from peer `from`: AS-loop check, ingress policy, attribute
// normalization. n is this device's neighbor entry for `from`, resolved
// once by the caller (core.Session.ToN); nil drops the route as
// DropNoNeighbor. The input route is left as it was: the result may share
// its slices, which no mutator writes in place (route.Route).
func (d *Device) ProcessIngress(r route.Route, from *Device, n *config.Neighbor) IngressResult {
	if n == nil {
		return IngressResult{Verdict: DropNoNeighbor, Stage: StageIngressPolicy, TermSeq: -1}
	}
	st := d.SessionTypeTo(from)

	// AS-loop prevention (eBGP only): a path already containing our AS is
	// dropped unless configuration (allowas-in) or the vendor's loop VSB
	// permits repetitions.
	if st == SessEBGP {
		if reps := r.CountAS(d.AS()); reps > 0 {
			allowed := n.AllowASIn
			if d.Prof.AllowASLoop && allowed == 0 {
				allowed = 1
			}
			if reps > allowed {
				return IngressResult{Verdict: DropLoop, Stage: StageLoopCheck, TermSeq: -1}
			}
		}
	}

	// Ingress route policy.
	pol, err := d.Cfg.ResolvedPolicy(n.InPolicy)
	if err != nil {
		// Validate() rejects dangling references at parse time; reaching
		// here means the caller bypassed it. Fail closed.
		return IngressResult{Verdict: DropPolicy, Stage: StageIngressPolicy, TermSeq: -1}
	}
	out, disp, seq := pol.Run(r, d.Node.ID)
	switch disp {
	case policy.Denied:
		return IngressResult{Verdict: DropPolicy, Stage: StageIngressPolicy, TermSeq: seq}
	case policy.DefaultAction:
		if pol != nil && !d.Prof.DefaultPolicyPermit {
			// An explicit policy exists but nothing matched: the vendor
			// default decides (the "default route policy" VSB).
			return IngressResult{Verdict: DropPolicy, Stage: StageIngressPolicy, TermSeq: -1, VendorDefaulted: true}
		}
		out = r
	}

	// Attribute normalization on receive.
	if st == SessEBGP {
		out.Protocol = route.EBGP
		out.AdminPref = d.eBGPPreference(n)
	} else {
		out.Protocol = route.IBGP
		// The configured BGP preference ranks the BGP winner against
		// other protocols; within BGP it is ignored (route.Better).
		out.AdminPref = d.eBGPPreference(n)
		// iBGP preserves LocalPref. Weight was zeroed by the sender's
		// egress; an ingress policy may have just set it, so keep it.
	}
	out.FromNode = from.Node.ID
	return IngressResult{Route: out, Verdict: Pass, Stage: StageIngressPolicy, TermSeq: seq}
}

// EgressResult carries the decision and localization data of an egress
// run.
type EgressResult struct {
	Route           route.Route
	Verdict         Verdict
	Stage           Stage
	TermSeq         int
	VendorDefaulted bool
}

// ProcessEgress runs the control-plane egress pipeline on a route this
// device advertises to peer `to`: advertisement eligibility, egress
// policy, and the eBGP/iBGP rewrite (AS prepend with the local-AS VSB,
// next-hop, community stripping per the community VSB, private-AS removal
// per its VSB). n is this device's neighbor entry for `to`, resolved once
// by the caller (core.Session.FromN); nil drops the route as
// DropNoNeighbor. Like ProcessIngress it leaves the input route as it was.
func (d *Device) ProcessEgress(r route.Route, to *Device, n *config.Neighbor) EgressResult {
	if n == nil {
		return EgressResult{Verdict: DropNoNeighbor, Stage: StageEgressPolicy, TermSeq: -1}
	}
	st := d.SessionTypeTo(to)

	// iBGP split-horizon: routes learned from an iBGP peer are not
	// re-advertised to iBGP peers, unless route reflection applies.
	if st == SessIBGP && r.Protocol == route.IBGP {
		if !d.reflects(r, n) {
			return EgressResult{Verdict: DropPolicy, Stage: StageEgressPolicy, TermSeq: -1}
		}
	}

	pol, err := d.Cfg.ResolvedPolicy(n.OutPolicy)
	if err != nil {
		return EgressResult{Verdict: DropPolicy, Stage: StageEgressPolicy, TermSeq: -1}
	}
	out, disp, seq := pol.Run(r, d.Node.ID)
	switch disp {
	case policy.Denied:
		return EgressResult{Verdict: DropPolicy, Stage: StageEgressPolicy, TermSeq: seq}
	case policy.DefaultAction:
		if pol != nil && !d.Prof.DefaultPolicyPermit {
			return EgressResult{Verdict: DropPolicy, Stage: StageEgressPolicy, TermSeq: -1, VendorDefaulted: true}
		}
		out = r
	}

	// Session rewrite.
	if st == SessEBGP {
		// Private-AS removal happens on the received path, before our own
		// AS is prepended — otherwise the "leading run" vendor variant
		// could never remove anything.
		if n.RemovePrivateAS {
			if d.Prof.RemovePrivateAll {
				out.RemovePrivateAll()
			} else {
				out.RemovePrivateLeading()
			}
		}
		// AS prepend, honoring AS migration (local-as VSB): the router
		// under migration announces the old AS — and, on some vendors,
		// both old and new.
		if d.Cfg.BGP != nil && d.Cfg.BGP.LocalAS != 0 {
			if d.Prof.LocalASBoth {
				out.PrependAS(d.AS())
			}
			out.PrependAS(d.Cfg.BGP.LocalAS)
		} else {
			out.PrependAS(d.AS())
		}
		out.NextHop = d.Node.ID
		// Weight and LocalPref do not cross eBGP sessions.
		out.Weight = 0
		out.LocalPref = route.DefaultLocalPref
		if !d.Prof.KeepCommunities {
			out.ClearCommunities()
			out.ClearExtCommunities()
		}
	} else {
		// iBGP: no prepend; next-hop preserved unless configured or the
		// self-next-hop VSB fires on VPN sessions.
		if n.NextHopSelf || (n.VPN && d.Prof.SelfNextHopVPN) {
			out.NextHop = d.Node.ID
		}
		out.Weight = 0
		if !d.Prof.KeepCommunities {
			out.ClearCommunities()
			out.ClearExtCommunities()
		}
	}
	return EgressResult{Route: out, Verdict: Pass, Stage: StageEgressRewrite, TermSeq: seq}
}

// reflects reports whether this device, acting as a route reflector,
// re-advertises an iBGP-learned route to neighbor n. Standard RR rule:
// reflect client routes to everyone, non-client routes to clients only.
func (d *Device) reflects(r route.Route, n *config.Neighbor) bool {
	if d.Cfg.BGP == nil {
		return false
	}
	fromClient := false
	if r.FromNode != topo.NoNode {
		for _, nb := range d.Cfg.BGP.Neighbors {
			if nb.RouteReflectorClient && nb.PeerName == d.peerNameByNode(r.FromNode) {
				fromClient = true
				break
			}
		}
	}
	if fromClient {
		return true
	}
	return n.RouteReflectorClient
}

// peerNameByNode is a hook set by the network assembler so the behavior
// model can map node IDs back to hostnames for RR decisions.
func (d *Device) peerNameByNode(id topo.NodeID) string {
	if d.NodeNamer == nil {
		return ""
	}
	return d.NodeNamer(id)
}

// OriginatedBGP returns the BGP routes this device injects locally:
// network statements plus redistributed static routes (honoring the
// redistribute-default VSB and any redistribute route-policy). resolve
// maps next-hop router names to node IDs (static routes need it).
func (d *Device) OriginatedBGP(resolve func(string) (topo.NodeID, bool)) []route.Route {
	if d.Cfg.BGP == nil {
		return nil
	}
	var out []route.Route
	for _, p := range d.Cfg.BGP.Networks {
		r := route.New(p, route.EBGP, d.Node.ID)
		r.AdminPref = d.eBGPPreference(nil)
		out = append(out, r)
	}
	for _, rd := range d.Cfg.BGP.Redistribute {
		if rd.From != "static" {
			continue // isis/connected redistribution handled by the engine
		}
		for _, sr := range d.Cfg.Statics {
			if sr.Prefix.IsDefault() && !d.Prof.RedistributeDefault {
				// The route-redistribution VSB: some vendors silently
				// refuse to redistribute 0.0.0.0/0.
				continue
			}
			cand := route.New(sr.Prefix, route.Static, d.Node.ID)
			if nh, ok := resolve(sr.NextHop); ok {
				cand.NextHop = nh
			}
			pol, err := d.Cfg.ResolvedPolicy(rd.Policy)
			if err != nil {
				continue
			}
			res, disp, _ := pol.Run(cand, d.Node.ID)
			if disp == policy.Denied {
				continue
			}
			if disp == policy.DefaultAction {
				if pol != nil && !d.Prof.DefaultPolicyPermit {
					continue
				}
				res = cand
			}
			res.Protocol = route.EBGP
			res.OriginAtt = route.OriginIncomplete
			res.AdminPref = d.eBGPPreference(nil)
			out = append(out, res)
		}
	}
	return out
}

// PermitData runs the data-plane ACL pipeline for a packet crossing the
// interface toward/from peerName in the given direction ("in" or "out").
// An unbound interface permits; a bound ACL with no matching rule falls to
// the vendor's default-ACL VSB.
func (d *Device) PermitData(peerName, dir string, src, dst uint32) (bool, Stage, bool) {
	aclName, ok := d.Cfg.InterfaceACLs[peerName+"/"+dir]
	if !ok {
		return true, StageDataACL, false
	}
	acl := d.Cfg.ACLs[aclName]
	disp, _ := acl.Run(src, dst)
	switch disp {
	case policy.Permitted:
		return true, StageDataACL, false
	case policy.Denied:
		return false, StageDataACL, false
	default:
		return d.Prof.DefaultACLPermit, StageDataACL, true
	}
}
