// Package hoyan is a configuration verifier for BGP/IS-IS wide area
// networks, reproducing the system described in "Accuracy, Scalability,
// Coverage: A Practical Configuration Verifier on a Global WAN"
// (SIGCOMM 2020).
//
// The verifier simulates route propagation across the whole network while
// attaching a topology condition — a boolean formula over link-aliveness
// variables — to every route update and RIB rule ("global simulation &
// local formal modeling"). One simulation per prefix answers:
//
//   - route reachability, including under up to k link failures,
//   - packet reachability through the derived FIBs and data-plane ACLs,
//   - device (role) equivalence for redundancy groups,
//   - route-update-racing ambiguity (order-dependent convergence),
//
// with concrete minimal failure witnesses for violations. Device behavior
// is vendor-specific (VSBs); the companion Tuner compares computed routes
// against a ground-truth network and patches the behavior profiles, the
// paper's §6 mechanism.
//
// # Quick start
//
//	net := hoyan.NewNetwork()
//	net.AddRouter(hoyan.Router{Name: "a", AS: 100, Vendor: "alpha"})
//	net.AddRouter(hoyan.Router{Name: "b", AS: 200, Vendor: "alpha"})
//	net.AddLink("a", "b", 10)
//	net.SetConfig("a", `hostname a
//	router bgp 100
//	 network 10.0.0.0/8
//	 neighbor b remote-as 200`)
//	net.SetConfig("b", `hostname b
//	router bgp 200
//	 neighbor a remote-as 100`)
//	v, err := net.Verifier(hoyan.Options{K: 2})
//	rep, err := v.RouteReach("10.0.0.0/8", "b")
package hoyan

import (
	"fmt"
	"sort"

	"hoyan/internal/behavior"
	"hoyan/internal/config"
	"hoyan/internal/core"
	"hoyan/internal/dataplane"
	"hoyan/internal/gen"
	"hoyan/internal/igp"
	"hoyan/internal/netaddr"
	"hoyan/internal/racing"
	"hoyan/internal/topo"
)

// Router describes one device added to a Network.
type Router struct {
	Name   string
	AS     uint32
	Vendor string // "alpha", "beta", "gamma", or custom
	Region string
	// Group names a redundancy group for role-equivalence checks.
	Group string
}

// Network accumulates topology and configurations, then builds Verifiers.
type Network struct {
	net  *topo.Network
	snap config.Snapshot
	errs []error
}

// NewNetwork returns an empty network.
func NewNetwork() *Network {
	return &Network{net: topo.NewNetwork(), snap: config.Snapshot{}}
}

// AddRouter registers a device. Errors are deferred to Verifier().
func (n *Network) AddRouter(r Router) {
	_, err := n.net.AddNode(topo.Node{
		Name: r.Name, AS: r.AS, Vendor: r.Vendor, Region: r.Region, Group: r.Group,
	})
	if err != nil {
		n.errs = append(n.errs, err)
	}
}

// AddLink connects two routers with an IS-IS metric (0 = default 10).
func (n *Network) AddLink(a, b string, weight uint32) {
	na, ok1 := n.net.NodeByName(a)
	nb, ok2 := n.net.NodeByName(b)
	if !ok1 || !ok2 {
		n.errs = append(n.errs, fmt.Errorf("hoyan: link %s~%s references unknown router", a, b))
		return
	}
	if _, err := n.net.AddLink(na.ID, nb.ID, weight); err != nil {
		n.errs = append(n.errs, err)
	}
}

// SetConfig parses and installs a device configuration (the dialect of
// the internal config language; see the README grammar).
func (n *Network) SetConfig(router, text string) {
	d, err := config.Parse(text)
	if err != nil {
		n.errs = append(n.errs, fmt.Errorf("hoyan: config for %s: %w", router, err))
		return
	}
	if d.Hostname == "" {
		d.Hostname = router
	}
	n.snap[router] = d
}

// ApplyUpdate merges incremental command lines into a router's current
// configuration (the Figure 2 "target configuration" step). Lines support
// the "no " removal prefix.
func (n *Network) ApplyUpdate(router string, lines ...string) error {
	d, ok := n.snap[router]
	if !ok {
		return fmt.Errorf("hoyan: no configuration for %q", router)
	}
	nd, err := config.ApplyUpdate(d, config.Update{Device: router, Lines: lines})
	if err != nil {
		return err
	}
	n.snap[router] = nd
	return nil
}

// Clone deep-copies the network (for what-if update checking).
func (n *Network) Clone() *Network {
	out := NewNetwork()
	for _, node := range n.net.Nodes() {
		out.net.MustAddNode(*node)
	}
	for _, l := range n.net.Links() {
		out.net.MustAddLink(l.A, l.B, l.Weight)
	}
	out.snap = n.snap.Clone()
	out.errs = append([]error(nil), n.errs...)
	return out
}

// Options tunes verification.
type Options struct {
	// K is the failure budget for *-under-failures queries (default 3).
	K int
	// Profiles selects the vendor behavior registry; nil uses the tuned
	// (ground-truth) profiles. Use NaiveProfiles to reproduce the
	// pre-tuner state of Figure 14.
	Profiles *behavior.Registry
	// AuditSample is the fraction of non-representative class members a
	// Sweep fully re-simulates and diffs against their replicated reports,
	// failing loudly on divergence (0 = no auditing, 1 = every member);
	// an incremental sweep audits the same fraction of its replayed
	// classes. The sample is seeded, so it is reproducible and independent
	// of the executors.
	AuditSample float64
	// Baseline, when non-nil, makes Sweep incremental: the current model
	// is diffed against the baseline's, only behavior classes the delta
	// can affect are re-simulated, and cached reports are replayed for
	// the rest (DESIGN.md, "Incremental re-verification"). Produce a
	// baseline with SweepBaseline. A store still in the memory of the
	// process that swept it also carries that sweep's IGP memo: the next
	// Sweep, and the first query of a Verifier built with the store as
	// its Baseline, start from it instead of re-running the IS-IS
	// fixpoints whenever the network's IGP inputs are the ones it was
	// built for. Such a Verifier's queries then run no fixpoint: a packet
	// query's data plane resolves BGP next hops by SPF branching
	// (igp.Engine.NextHops), which the memo does not hold.
	Baseline *ResultStore
	// Modular runs Sweep region by region (DESIGN.md, "Modular
	// verification"): each prefix family is simulated in its home region
	// first, the routes it exports across each region cut are captured as
	// an interface summary, and every other region is then verified
	// against the imported summary — so a pass's BGP state covers one
	// region (the IGP memo and session base are the model's, shared with
	// monolithic passes). Reports are byte-identical to
	// a monolithic sweep; families whose behavior a cut cannot express
	// (cross-region origination, re-export across a second cut, frozen
	// sessions) fall back to monolithic simulation, loudly counted in
	// SweepReport.Modular. Baseline capture (SweepBaseline, SweepOver with
	// capture) refuses it: a class record needs the whole-WAN taint set
	// and conditions of one monolithic pass.
	Modular bool
}

// TunedProfiles returns the fully tuned vendor behavior registry.
func TunedProfiles() *behavior.Registry { return behavior.TrueProfiles() }

// NaiveProfiles returns the untuned registry (every vendor assumed alike),
// the state before the §6 tuner ran.
func NaiveProfiles() *behavior.Registry { return behavior.NaiveProfiles() }

// Verifier answers verification queries over a frozen network snapshot.
// It is not safe for concurrent use.
type Verifier struct {
	model *core.Model
	copts core.Options
	have  *igp.Memo       // the Baseline's IGP memo, nil without one
	sim   *core.Simulator // built by the first query that simulates (simulator)
	opts  Options
	cache map[netaddr.Prefix]*core.Result
	fibs  map[netaddr.Prefix]*dataplane.FIB
}

// Verifier freezes the network and builds a verifier. It runs no IS-IS
// fixpoint: its first query that simulates builds the one core.Shared it
// answers from, starting from opts.Baseline's IGP memo when the store
// carries one (core.SharedFrom reuses it only when it is valid for this
// network). A network whose IS-IS fixpoint the step cap cuts off fails
// that query, and every later one, with an error naming the destination.
func (n *Network) Verifier(opts Options) (*Verifier, error) {
	if len(n.errs) > 0 {
		return nil, n.errs[0]
	}
	opts, reg, copts := opts.resolve()
	m, err := core.Assemble(n.net, n.snap, reg)
	if err != nil {
		return nil, err
	}
	v := &Verifier{
		model: m,
		copts: copts,
		opts:  opts,
		cache: map[netaddr.Prefix]*core.Result{},
		fibs:  map[netaddr.Prefix]*dataplane.FIB{},
	}
	if opts.Baseline != nil {
		v.have = opts.Baseline.igp
	}
	return v, nil
}

// simulator returns the verifier's simulator, building its Shared first.
func (v *Verifier) simulator() *core.Simulator {
	if v.sim == nil {
		v.sim = core.SharedFrom(v.model, v.copts, v.have, 0).NewSimulator()
	}
	return v.sim
}

// Model is the assembled model the verifier answers from, for callers
// (the HTTP service) that also list, classify or vet it.
func (v *Verifier) Model() *core.Model { return v.model }

// Prefixes lists every prefix announced anywhere on the network.
func (v *Verifier) Prefixes() []string {
	var out []string
	for _, p := range v.model.AnnouncedPrefixes() {
		out = append(out, p.String())
	}
	return out
}

// Routers lists all router names.
func (v *Verifier) Routers() []string {
	var out []string
	for _, n := range v.model.Net.Nodes() {
		out = append(out, n.Name)
	}
	sort.Strings(out)
	return out
}

func (v *Verifier) result(p netaddr.Prefix) (*core.Result, error) {
	if r, ok := v.cache[p]; ok {
		return r, nil
	}
	r, err := v.simulator().Run(p)
	if err != nil {
		return nil, err
	}
	v.cache[p] = r
	return r, nil
}

func (v *Verifier) fib(p netaddr.Prefix) (*dataplane.FIB, error) {
	if f, ok := v.fibs[p]; ok {
		return f, nil
	}
	res, err := v.result(p)
	if err != nil {
		return nil, err
	}
	f := dataplane.Build(res)
	v.fibs[p] = f
	return f, nil
}

func (v *Verifier) node(name string) (topo.NodeID, error) {
	id, ok := v.model.Resolve(name)
	if !ok {
		return topo.NoNode, fmt.Errorf("hoyan: unknown router %q", name)
	}
	return id, nil
}

// ReachReport answers a reachability query.
type ReachReport struct {
	// Reachable is reachability with all links up.
	Reachable bool
	// MinFailures is the smallest number of link failures that breaks
	// reachability; 0 when unreachable already, -1 when unbreakable
	// within the modeled failure budget.
	MinFailures int
	// Tolerant reports whether reachability survives any K failures.
	Tolerant bool
	// Witness names the links of a minimal breaking failure set.
	Witness []string
	// FormulaLen is the solved formula's length (the Figure 13 metric).
	FormulaLen int
}

// clip maps a solved min-failure count onto the report convention, the
// one place the budget is applied to a single-prefix answer.
func (v *Verifier) clip(rep *ReachReport, min int) {
	switch {
	case !rep.Reachable:
		rep.MinFailures = 0
	case min > v.opts.K:
		rep.MinFailures = -1
		rep.Tolerant = true
	default:
		rep.MinFailures = min
	}
}

func (v *Verifier) reachReport(res *core.Result, n topo.NodeID, pt core.Pattern) ReachReport {
	rep := ReachReport{Reachable: res.Reachable(n, pt)}
	min, flen := res.MinFailuresToLose(n, pt)
	rep.FormulaLen = flen
	v.clip(&rep, min)
	if fs, ok := res.WitnessFailure(n, pt); ok && rep.MinFailures > 0 {
		for _, l := range fs {
			rep.Witness = append(rep.Witness, v.model.Net.Link(l).Name)
		}
	}
	return rep
}

// RouteReach verifies that the router holds a route to the prefix,
// including the minimal failure set that would remove it (§5.4).
func (v *Verifier) RouteReach(prefix, router string) (ReachReport, error) {
	p, err := netaddr.Parse(prefix)
	if err != nil {
		return ReachReport{}, err
	}
	n, err := v.node(router)
	if err != nil {
		return ReachReport{}, err
	}
	res, err := v.result(p)
	if err != nil {
		return ReachReport{}, err
	}
	return v.reachReport(res, n, core.AnyRouteTo(p)), nil
}

// PacketReach verifies that packets from src toward an address in the
// prefix reach the prefix's gateway (§5.5), under failures up to K.
func (v *Verifier) PacketReach(prefix, src string) (ReachReport, error) {
	p, err := netaddr.Parse(prefix)
	if err != nil {
		return ReachReport{}, err
	}
	s, err := v.node(src)
	if err != nil {
		return ReachReport{}, err
	}
	anns := v.model.AnnouncersOf(p)
	if len(anns) == 0 {
		return ReachReport{}, fmt.Errorf("hoyan: nobody announces %s", p)
	}
	fib, err := v.fib(p)
	if err != nil {
		return ReachReport{}, err
	}
	// Reachability to any gateway counts (anycast-style conflicts are
	// caught by the audit sweep).
	f := v.sim.F
	cond := fib.ReachAny(s, 0, p.Addr+1, anns)
	rep := ReachReport{Reachable: f.Eval(cond, nil), FormulaLen: f.Len(cond)}
	v.clip(&rep, f.MinFailuresToViolate(cond))
	return rep, nil
}

// EquivalenceReport lists divergences between two supposedly equivalent
// routers (§7.2's equivalent-role property).
type EquivalenceReport struct {
	Equivalent  bool
	Differences []string
}

// RoleEquivalence checks that two routers hold attribute-identical best
// routes for every announced prefix.
func (v *Verifier) RoleEquivalence(a, b string) (EquivalenceReport, error) {
	na, err := v.node(a)
	if err != nil {
		return EquivalenceReport{}, err
	}
	nb, err := v.node(b)
	if err != nil {
		return EquivalenceReport{}, err
	}
	rep := EquivalenceReport{Equivalent: true}
	for _, p := range v.model.AnnouncedPrefixes() {
		res, err := v.result(p)
		if err != nil {
			return rep, err
		}
		for _, d := range res.EquivalentRoles(na, nb) {
			rep.Equivalent = false
			rep.Differences = append(rep.Differences,
				fmt.Sprintf("%s: %s (%s=%s, %s=%s)", d.Prefix, d.Field, a, d.A, b, d.B))
		}
	}
	return rep, nil
}

// RacingReport answers an update-racing query.
type RacingReport struct {
	Ambiguous bool
	// Routers whose converged selection depends on update arrival order.
	AmbiguousRouters []string
	Convergences     int
}

// CheckRacing detects order-dependent convergence for a prefix (§5.4,
// Appendix B) — the Figure 1 class of bugs.
func (v *Verifier) CheckRacing(prefix string) (RacingReport, error) {
	p, err := netaddr.Parse(prefix)
	if err != nil {
		return RacingReport{}, err
	}
	rep, err := racing.Detect(v.simulator(), p, racing.DefaultOptions())
	if err != nil {
		return RacingReport{}, err
	}
	out := RacingReport{Ambiguous: rep.Ambiguous, Convergences: len(rep.Solutions)}
	for _, n := range rep.AmbiguousNodes {
		out.AmbiguousRouters = append(out.AmbiguousRouters, v.model.Net.Node(n).Name)
	}
	return out, nil
}

// Stats exposes the propagation statistics of a prefix's simulation
// (pruning categories of Figure 12, condition lengths of Figure 11).
func (v *Verifier) Stats(prefix string) (core.Stats, error) {
	p, err := netaddr.Parse(prefix)
	if err != nil {
		return core.Stats{}, err
	}
	res, err := v.result(p)
	if err != nil {
		return core.Stats{}, err
	}
	return res.Stats, nil
}

// RouteInfo describes a router's selected (best) route for a prefix under
// all links up.
type RouteInfo struct {
	Present  bool
	Protocol string
	NextHop  string
	ASPath   string
	// Pref is the admin preference the route was installed with.
	Pref      uint32
	LocalPref uint32
}

// BestRoute reports the route a router would install for the prefix with
// all links up — the selection-level view update checking diffs (the §7.1
// static-vs-eBGP flip is invisible to reachability but not to this).
func (v *Verifier) BestRoute(prefix, router string) (RouteInfo, error) {
	p, err := netaddr.Parse(prefix)
	if err != nil {
		return RouteInfo{}, err
	}
	n, err := v.node(router)
	if err != nil {
		return RouteInfo{}, err
	}
	res, err := v.result(p)
	if err != nil {
		return RouteInfo{}, err
	}
	best, ok := res.BestUnder(n, p, nil)
	if !ok {
		return RouteInfo{}, nil
	}
	nh := ""
	if best.NextHop >= 0 && int(best.NextHop) < v.model.Net.NumNodes() {
		nh = v.model.Net.Node(best.NextHop).Name
	}
	return RouteInfo{
		Present:   true,
		Protocol:  best.Protocol.String(),
		NextHop:   nh,
		ASPath:    best.ASPathString(),
		Pref:      best.AdminPref,
		LocalPref: best.LocalPref,
	}, nil
}

// LoadDirectory loads a network from the on-disk format hoyangen writes:
// `topology.txt` plus one `<router>.cfg` per device.
func LoadDirectory(dir string) (*Network, error) {
	topoNet, snap, err := gen.LoadDir(dir)
	if err != nil {
		return nil, err
	}
	return &Network{net: topoNet, snap: snap}, nil
}

// NetworkFrom wraps an already-loaded topology and configuration
// snapshot (the pair gen.LoadDir returns) into a Network, for callers —
// the CLI and the HTTP service — that parse the on-disk format
// themselves and then need Sweep/SweepBaseline/PlanIncremental.
func NetworkFrom(net *topo.Network, snap config.Snapshot) *Network {
	return &Network{net: net, snap: snap}
}

// MinRouterFailures returns the smallest number of ROUTER failures that
// removes the router's route to the prefix (never counting the router
// itself or the route origins, whose failure is trivially fatal);
// -1 means no modeled router set breaks it. This is Table 1's
// "handling failures of router/link" on the router side.
func (v *Verifier) MinRouterFailures(prefix, router string) (int, error) {
	p, err := netaddr.Parse(prefix)
	if err != nil {
		return 0, err
	}
	n, err := v.node(router)
	if err != nil {
		return 0, err
	}
	res, err := v.result(p)
	if err != nil {
		return 0, err
	}
	min := res.MinRouterFailuresToLose(n, core.AnyRouteTo(p))
	if min > v.opts.K {
		return -1, nil
	}
	return min, nil
}
