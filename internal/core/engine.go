package core

import (
	"fmt"
	"slices"

	"hoyan/internal/behavior"
	"hoyan/internal/config"
	"hoyan/internal/igp"
	"hoyan/internal/logic"
	"hoyan/internal/netaddr"
	"hoyan/internal/route"
	"hoyan/internal/topo"
)

// Options tunes one simulation (§5.6 optimizations are individually
// switchable for the ablation benches).
type Options struct {
	// K is the failure budget: reachability is asked "under up to K link
	// failures" and conditions needing more than K failures are pruned.
	K int
	// PruneOverK enables dropping more-than-K-failure conditions.
	PruneOverK bool
	// PruneImpossible enables dropping always-false conditions.
	PruneImpossible bool
	// Simplify enables condition formula simplification.
	Simplify bool
}

// DefaultOptions is the paper's operating point.
func DefaultOptions() Options {
	return Options{K: 3, PruneOverK: true, PruneImpossible: true, Simplify: true}
}

// SimplifyThreshold is the formula length above which simplification is
// attempted.
const SimplifyThreshold = 24

// stepsPerNodeSession scales Run's worklist step cap: a run that is still
// changing RIBs after this many steps per node and session has no
// converged state (StepLimitError).
const stepsPerNodeSession = 64

// dampAfter freezes a session's contribution after this many changes
// (Stats.FrozenSessions). Only order-dependent (racing) configurations
// ever reach it.
const dampAfter = 64

// Stats counts propagation work, feeding Figures 8, 11 and 12.
type Stats struct {
	// Branches is the number of candidate route-update announcements
	// considered (the denominator of Figure 12).
	Branches int
	// DroppedPolicy counts branches cut by ingress/egress policies or
	// split-horizon.
	DroppedPolicy int
	// DroppedOverK counts branches cut by the >K-failures prune.
	DroppedOverK int
	// DroppedImpossible counts branches cut as always-false.
	DroppedImpossible int
	// Delivered counts branches that produced a RIB contribution
	// ("Remain" in Figure 12).
	Delivered int
	// FrozenSessions counts sessions whose contribution was frozen by
	// oscillation damping: a genuinely order-dependent configuration (a
	// BGP dispute wheel, the racing class of bugs) has no unique
	// fixpoint, so after a session's contribution churns more than the
	// damping threshold the engine keeps its current value and converges
	// to ONE stable state — mirroring what a real network does. Racing
	// detection (package racing) is the mechanism that reports the
	// ambiguity itself.
	FrozenSessions int
	// MaxCondLen is the longest topology-condition formula seen during
	// propagation (Figure 11).
	MaxCondLen int
	// Steps is the number of worklist node-processings.
	Steps int
	// SolverNodes is how many BDD nodes the simulator's factory made
	// during the run (logic.Factory.SolverNodes, after minus before): what
	// the prunes and simplifications cost under the factory's variable
	// order. A count, so it repeats exactly.
	SolverNodes int
}

// StepLimitError is what Run returns when propagation is still changing
// RIBs after the step cap (stepsPerNodeSession per node and session):
// the run has no converged state to report.
type StepLimitError struct {
	Prefix netaddr.Prefix
	Steps  int // the cap that was hit
}

func (e *StepLimitError) Error() string {
	return fmt.Sprintf("core: propagation for %s exceeded %d steps (divergent policy interaction?)", e.Prefix, e.Steps)
}

func (s *Stats) observeCondLen(n int) {
	if n > s.MaxCondLen {
		s.MaxCondLen = n
	}
}

// Entry is one RIB rule: a route valid under a topology condition.
type Entry struct {
	Route route.Route
	Cond  logic.F
}

// session is one directed BGP session of the model with its
// establishment condition.
type session struct {
	Session
	cond logic.F
}

// Simulator owns the per-shard mutable state: one formula factory, one
// IGP engine, the session table, and recycled per-run scratch. Prefix
// simulations run sequentially on a Simulator; run several Simulators
// over prefix shards for parallelism (the paper uses 50 worker threads
// the same way). Every Simulator comes from a Shared (Shared.NewSimulator),
// whose memo is the only source of its IGP-riding session conditions, so
// the model assembly and IS-IS propagation happen once per run, not once
// per worker.
type Simulator struct {
	M *Model
	F *logic.Factory
	// IGP is read by one consumer only: dataplane.Build, which resolves an
	// iBGP next hop through the IS-IS next hops toward it
	// (igp.Engine.NextHops), built after the factory's Mark. Session
	// conditions never come from it (buildBase).
	IGP  *igp.Engine
	Opts Options

	shared     *Shared
	based      bool // the session base is built and marked (buildBase)
	sessions   []session
	sessionsBy [][]int // outgoing session indices per node
	sessionsTo [][]int // incoming session indices per node

	// maxSteps and damping are Run's step cap (stepsPerNodeSession per node
	// and session) and oscillation-damping threshold (dampAfter), fields
	// only so a test can lower them.
	maxSteps, damping int

	// restr scopes the next Run to one region of a Partition (modular.go);
	// nil means monolithic simulation. Set only by RunRegion.
	restr *restriction

	sc runScratch
}

// runScratch holds buffers Run recycles across prefixes: per-node
// origination lists, per-session contributions, the worklist, and the
// per-prefix RIB slots bgpRIB assembles into. Nothing here survives
// into a Result — Run copies what a Result retains.
type runScratch struct {
	locals  [][]Entry // per node, truncated per run
	statics [][]Entry
	contrib [][]Entry // per session (post-ingress view)
	queue   []int
	inQueue []bool
	changes []int

	// The prefix universe of the current run: every prefix that can
	// appear in a RIB while simulating this family, sorted. Slots are
	// parallel to prefixes and reused call-to-call by bgpRIB.
	prefixes  []netaddr.Prefix
	prefixIdx map[netaddr.Prefix]int
	slots     [][]Entry

	rankBGP, rankOther []Entry // rank's partition buffers

	// Taint recording (taint.go): which nodes held, sent or were offered
	// family routes during the current run. Plain bool stores in the hot
	// path — near-zero cost.
	taintNode []bool // per node
}

// Session is one directed BGP session of the model: it exists iff both
// ends configure each other as neighbours, and is iBGP iff their devices
// share an AS.
type Session struct {
	From, To topo.NodeID
	IBGP     bool
	// ViaIGP marks an iBGP session between two IS-IS speakers: its
	// condition is the IS-IS reachability of the endpoints, both ways,
	// read from the Shared's IGP memo (Simulator.buildBase).
	ViaIGP bool
	// FromN is From's neighbour entry for To; ToN is To's entry for From.
	FromN, ToN *config.Neighbor
}

// Sessions returns every BGP session of the model in the order
// simulators number them, computed once per Model like Classes. Callers
// must not modify the slice.
func (m *Model) Sessions() []Session {
	m.sessionsOnce.Do(func() {
		isis := func(id topo.NodeID) bool {
			c := m.Configs[id]
			return c.ISIS != nil && c.ISIS.Enabled
		}
		for _, node := range m.Net.Nodes() {
			dev := m.Devices[node.ID]
			if dev.Cfg.BGP == nil {
				continue
			}
			for _, n := range dev.Cfg.BGP.Neighbors {
				peer, ok := m.Resolve(n.PeerName)
				if !ok {
					continue
				}
				peerDev := m.Devices[peer]
				back, ok := peerDev.Neighbor(node.Name)
				if !ok {
					continue
				}
				ibgp := dev.SessionTypeTo(peerDev) == behavior.SessIBGP
				m.sessions = append(m.sessions, Session{From: node.ID, To: peer, IBGP: ibgp,
					ViaIGP: ibgp && isis(node.ID) && isis(peer), FromN: n, ToN: back})
			}
		}
	})
	return m.sessions
}

// NewSimulator is NewShared(m, opts).NewSimulator(): a simulator with a
// Shared of its own, for a caller that simulates m with one simulator.
func NewSimulator(m *Model, opts Options) *Simulator { return NewShared(m, opts).NewSimulator() }

// newSimulator prepares sh's session table in the given empty factory,
// which must be under the model's variable order.
func newSimulator(sh *Shared, f *logic.Factory) *Simulator {
	m := sh.M
	s := &Simulator{
		M:          m,
		Opts:       sh.Opts,
		shared:     sh,
		sessionsBy: make([][]int, m.Net.NumNodes()),
		sessionsTo: make([][]int, m.Net.NumNodes()),
	}
	for idx, se := range m.Sessions() {
		s.sessions = append(s.sessions, session{Session: se})
		s.sessionsBy[se.From] = append(s.sessionsBy[se.From], idx)
		s.sessionsTo[se.To] = append(s.sessionsTo[se.To], idx)
	}
	s.maxSteps = stepsPerNodeSession * m.Net.NumNodes() * (len(s.sessions) + 1)
	s.damping = dampAfter
	s.reset(f)
	return s
}

// reset makes f, an empty factory, the simulator's, with every direct
// session's condition built in it; the first pass builds the rest of the
// session base (buildBase).
func (s *Simulator) reset(f *logic.Factory) {
	s.F = f
	s.IGP = igp.New(s.M.Net, s.M.Configs, f, igpOptions(s.Opts))
	s.based = false
	for i := range s.sessions {
		se := &s.sessions[i]
		se.cond = logic.False
		if !se.ViaIGP {
			se.cond = s.directCond(se.From, se.To)
		}
	}
	s.clearScratch()
}

// buildBase completes the session base before the simulator's first pass
// and marks the factory, so a Reset returns here: the condition and BDD of
// every IGP-riding session, in session order. It is core's one reader of
// the IS-IS reachability conditions: it imports from the Shared's memo
// the (source, destination) conditions those sessions read, grouped per
// destination, and conjoins each session's two (Appendix C). It waits for
// a pass, so a simulator that never runs one builds nothing. The base is
// a function of the Shared alone. A memo the step cap cut off lacks
// destinations, so there is no base to build: the Shared's error is
// returned instead, and every pass refuses with it.
func (s *Simulator) buildBase() error {
	if err := s.shared.Err(); err != nil {
		return err
	}
	if s.based {
		return nil
	}
	type pair struct{ from, to topo.NodeID }
	memo := s.shared.memo
	var dsts []topo.NodeID                  // in first-use order
	srcs := map[topo.NodeID][]topo.NodeID{} // per destination, in session order
	for _, se := range s.sessions {
		if !se.ViaIGP {
			continue
		}
		for _, p := range [2]pair{{se.From, se.To}, {se.To, se.From}} {
			if srcs[p.to] == nil {
				dsts = append(dsts, p.to)
			}
			srcs[p.to] = append(srcs[p.to], p.from)
		}
	}
	reach := map[pair]logic.F{}
	for _, dst := range dsts {
		for j, c := range memo.Reach(s.F, dst, srcs[dst]) {
			reach[pair{srcs[dst][j], dst}] = c
		}
	}
	for i := range s.sessions {
		if se := &s.sessions[i]; se.ViaIGP {
			se.cond = s.F.And(reach[pair{se.From, se.To}], reach[pair{se.To, se.From}])
			s.F.SAT(se.cond)
		}
	}
	s.F.Mark()
	s.based = true
	return nil
}

// Reset returns the simulator to its session base (buildBase): it recycles
// the factory to its Mark (logic.Factory.Recycle), drops every IGP next
// hop (the base holds none; a dataplane.Build lookup branches them after
// the Mark), and truncates the scratch, keeping the model, the session
// table, the base, the factory's tables and the scratch capacity.
// A run after a Reset makes the ids, conditions and counts a new
// simulator's would. Executors Reset between passes to bound
// formula-arena memory without paying session-table construction, table
// allocation or the session base again. A Result obtained before a Reset
// panics if it is queried afterwards.
func (s *Simulator) Reset() {
	// A cut-off memo builds no base: the factory recycles to its
	// constants, and the next pass refuses with the Shared's error.
	_ = s.buildBase()
	s.F.Recycle()
	s.IGP.Recycle()
	s.clearScratch()
}

// clearScratch drops the scratch entries, which hold formula refs from
// before a Reset, and keeps the capacity.
func (s *Simulator) clearScratch() {
	sc := &s.sc
	for i := range sc.contrib {
		sc.contrib[i] = sc.contrib[i][:0]
	}
	for i := range sc.locals {
		sc.locals[i] = sc.locals[i][:0]
	}
	for i := range sc.statics {
		sc.statics[i] = sc.statics[i][:0]
	}
	for i := range sc.slots {
		sc.slots[i] = sc.slots[i][:0]
	}
	sc.rankBGP = sc.rankBGP[:0]
	sc.rankOther = sc.rankOther[:0]
}

// directCond returns the condition of a single-hop session: any parallel
// link up. False when the nodes are not adjacent.
func (s *Simulator) directCond(a, b topo.NodeID) logic.F {
	cond := logic.False
	for _, ad := range s.M.Net.Neighbors(a) {
		if ad.Peer == b {
			cond = s.F.Or(cond, s.F.Var(s.M.Net.AliveVar(ad.Link)))
		}
	}
	return cond
}

// Result is the converged state of one prefix-family simulation. Its
// conditions live in Sim.F, so it is valid until the simulator's next
// Reset (result.go, Result.f).
type Result struct {
	Sim      *Simulator
	Prefixes []netaddr.Prefix
	Stats    Stats
	// recycles is Sim.F.Recycles() when Run made the result.
	recycles uint64
	// ribs[node] is the converged RIB (BGP + static + aggregate entries),
	// ranked by the FIB order (admin preference first).
	ribs [][]Entry
	// sessionMsgs[i] is session i's wire view: what the fixpoint last
	// accepted from it (Run).
	sessionMsgs [][]Entry
	// taint records what the run actually consulted (taint.go).
	taint Taint
}

// prepareScratch sizes and clears the recycled per-run buffers.
func (s *Simulator) prepareScratch(n int) {
	sc := &s.sc
	if len(sc.locals) < n {
		sc.locals = make([][]Entry, n)
		sc.statics = make([][]Entry, n)
		sc.inQueue = make([]bool, n)
		sc.taintNode = make([]bool, n)
	}
	for i := 0; i < n; i++ {
		sc.locals[i] = sc.locals[i][:0]
		sc.statics[i] = sc.statics[i][:0]
		sc.inQueue[i] = false
		sc.taintNode[i] = false
	}
	if len(sc.contrib) < len(s.sessions) {
		sc.contrib = make([][]Entry, len(s.sessions))
		sc.changes = make([]int, len(s.sessions))
	}
	for i := range sc.contrib {
		sc.contrib[i] = nil
		sc.changes[i] = 0
	}
	if sc.prefixIdx == nil {
		sc.prefixIdx = make(map[netaddr.Prefix]int, 16)
	} else {
		clear(sc.prefixIdx)
	}
	sc.prefixes = sc.prefixes[:0]
	sc.queue = sc.queue[:0]
}

// Run simulates the propagation of the prefix's family (§5.4 Algorithm 1)
// and returns the converged RIBs with topology conditions, and every
// session's wire view. A region pass (RunRegion) is the same fixpoint
// over the region's node mask.
func (s *Simulator) Run(prefix netaddr.Prefix) (*Result, error) {
	if err := s.buildBase(); err != nil {
		return nil, err
	}
	family := s.M.PrefixFamily(prefix)
	inFamily := make(map[netaddr.Prefix]bool, len(family))
	for _, p := range family {
		inFamily[p] = true
	}
	// Longest-prefix matching makes any overlapping route relevant to the
	// data plane (a more-specific static can capture part of the range),
	// so overlapping origins join the simulation too.
	overlapsFamily := func(q netaddr.Prefix) bool {
		if inFamily[q] {
			return true
		}
		for _, p := range family {
			if p.Overlaps(q) {
				return true
			}
		}
		return false
	}
	n := s.M.Net.NumNodes()
	res := &Result{Sim: s, Prefixes: family, recycles: s.F.Recycles(), ribs: make([][]Entry, n)}
	solverNodes := s.F.SolverNodes()
	sc := &s.sc
	s.prepareScratch(n)

	// Locally originated entries per node: BGP network statements,
	// redistributed statics (as BGP, from the Model's origin cache), and
	// raw statics (RIB/FIB only).
	origins := s.M.Origins()
	resolve := s.M.resolveFn()
	for id := 0; id < n; id++ {
		if s.outside(topo.NodeID(id)) {
			// Restricted pass: out-of-region nodes originate nothing here —
			// their routes arrive, if at all, as imported summary messages.
			continue
		}
		dev := s.M.Devices[id]
		for _, r := range origins[id] {
			if overlapsFamily(r.Prefix) {
				sc.locals[id] = append(sc.locals[id], Entry{Route: r, Cond: logic.True})
			}
		}
		for _, sr := range dev.Cfg.Statics {
			if !overlapsFamily(sr.Prefix) {
				continue
			}
			r := route.New(sr.Prefix, route.Static, topo.NodeID(id))
			r.AdminPref = behavior.StaticPreference(sr)
			cond := logic.True
			if nh, ok := resolve(sr.NextHop); ok {
				r.NextHop = nh
				// A static stays active while some link toward its
				// next hop is up.
				if c := s.directCond(topo.NodeID(id), nh); c != logic.False {
					cond = c
				}
			}
			sc.statics[id] = append(sc.statics[id], Entry{Route: r, Cond: cond})
		}
		if len(sc.locals[id]) > 0 || len(sc.statics[id]) > 0 {
			sc.taintNode[id] = true
		}
	}

	// The run's prefix universe: the family plus every overlapping BGP
	// origin. It is closed under propagation — policies never rewrite a
	// route's prefix and aggregates are restricted to the family — so
	// every RIB assembled during this run indexes into it. Sorting it
	// once here replaces the per-announce map-key sort of the old path.
	addPrefix := func(p netaddr.Prefix) {
		if _, ok := sc.prefixIdx[p]; !ok {
			sc.prefixIdx[p] = -1
			sc.prefixes = append(sc.prefixes, p)
		}
	}
	for _, p := range family {
		addPrefix(p)
	}
	for id := 0; id < n; id++ {
		for _, e := range sc.locals[id] {
			addPrefix(e.Route.Prefix)
		}
	}
	if s.restr != nil {
		// The universe must stay GLOBAL under a restricted pass — masked
		// out-of-region origins and imported routes still index into the
		// per-prefix slots — so every pass of a family shares the
		// monolithic run's universe exactly.
		for id := 0; id < n; id++ {
			if s.restr.in[id] {
				continue
			}
			for _, r := range origins[id] {
				if overlapsFamily(r.Prefix) {
					addPrefix(r.Prefix)
				}
			}
		}
		for _, es := range s.restr.contrib {
			for _, e := range es {
				addPrefix(e.Route.Prefix)
			}
		}
	}
	sortPrefixes(sc.prefixes)
	for i, p := range sc.prefixes {
		sc.prefixIdx[p] = i
	}
	for len(sc.slots) < len(sc.prefixes) {
		sc.slots = append(sc.slots, nil)
	}

	queue := sc.queue
	for id := 0; id < n; id++ {
		if len(sc.locals[id]) > 0 {
			queue = append(queue, id)
			sc.inQueue[id] = true
		}
	}
	if s.restr != nil {
		// Pin the imported summary contributions on inject sessions — they
		// are never recomputed (the sender is outside the region) — and
		// queue their receivers so propagation starts from the cut.
		for si, es := range s.restr.contrib {
			if len(es) == 0 {
				continue
			}
			sc.contrib[si] = es
			s.taintSession(s.sessions[si])
			to := int(s.sessions[si].To)
			if !sc.inQueue[to] {
				sc.inQueue[to] = true
				queue = append(queue, to)
			}
		}
	}
	// wire[si] is session si's wire view: what its last accepted announce
	// (contribution unchanged or replaced, not frozen) sent. The fixpoint
	// is the only place a session is announced, so this is the view the
	// receiver's contribution came from (SessionUpdates).
	wire := make([][]Entry, len(s.sessions))
	for len(queue) > 0 {
		if res.Stats.Steps >= s.maxSteps {
			return nil, &StepLimitError{Prefix: prefix, Steps: s.maxSteps}
		}
		res.Stats.Steps++
		u := queue[0]
		queue = queue[1:]
		sc.inQueue[u] = false
		s.bgpRIB(u, inFamily)
		for _, si := range s.sessionsBy[u] {
			if sc.changes[si] > s.damping {
				continue // oscillation damping (see Stats.FrozenSessions)
			}
			se := s.sessions[si]
			out, sent := s.announce(se, si, &res.Stats)
			if s.outside(se.To) {
				// A cut session: announced, delivered to no one; its wire
				// view is what the region's CutSummary carries.
				wire[si] = sent
				continue
			}
			if !s.entriesEqual(sc.contrib[si], out) {
				sc.changes[si]++
				if sc.changes[si] > s.damping {
					res.Stats.FrozenSessions++
					continue
				}
				sc.contrib[si] = out
				if !sc.inQueue[se.To] {
					sc.inQueue[se.To] = true
					queue = append(queue, int(se.To))
				}
			}
			wire[si] = sent
		}
	}
	sc.queue = queue[:0]

	// Final RIBs: BGP entries (incl. aggregates) + statics, FIB-ranked.
	// These are retained by the Result, so they are built fresh, not in
	// scratch.
	for id := 0; id < n; id++ {
		if s.outside(topo.NodeID(id)) {
			continue // out-of-region RIBs belong to other passes
		}
		s.bgpRIB(id, inFamily)
		var all []Entry
		for i := range sc.prefixes {
			all = append(all, sc.slots[i]...)
		}
		all = append(all, sc.statics[id]...)
		s.rank(all, id)
		res.ribs[id] = all
		if len(all) > 0 {
			sc.taintNode[id] = true
		}
	}
	res.sessionMsgs = wire
	res.taint = s.captureTaint()
	res.Stats.SolverNodes = s.F.SolverNodes() - solverNodes
	return res, nil
}

// bgpRIB assembles node u's ranked BGP entries into the per-prefix
// slots: local entries, then session contributions in session order,
// then aggregates of the family inFamily; each slot is FIB-ranked in
// place.
func (s *Simulator) bgpRIB(u int, inFamily map[netaddr.Prefix]bool) {
	sc := &s.sc
	for i := range sc.prefixes {
		sc.slots[i] = sc.slots[i][:0]
	}
	for _, e := range sc.locals[u] {
		i := sc.prefixIdx[e.Route.Prefix]
		sc.slots[i] = append(sc.slots[i], e)
	}
	for _, si := range s.sessionsTo[u] {
		for _, e := range sc.contrib[si] {
			i := sc.prefixIdx[e.Route.Prefix]
			sc.slots[i] = append(sc.slots[i], e)
		}
	}
	s.applyAggregates(u, inFamily)
	for i := range sc.prefixes {
		if len(sc.slots[i]) > 1 {
			s.rank(sc.slots[i], u)
		}
	}
}

// outside reports whether the current run is a region pass whose node
// mask leaves node id out: such a node is never queued, originates
// nothing and receives nothing.
func (s *Simulator) outside(id topo.NodeID) bool {
	return s.restr != nil && !s.restr.in[id]
}

// SessionUpdates returns the converged route updates sent over the
// session from→to as they appear on the wire (after the sender's egress
// pipeline, before the receiver's ingress pipeline — the BMP vantage
// point), and whether such a session exists. The tuner compares them
// with BMP-style update logs to find latent VSBs (Figure 6's R2, whose
// RIB matches but whose updates differ); updates the receiver's ingress
// drops are still listed. A session frozen by oscillation damping shows
// the updates its receiver holds the contribution of.
func (r *Result) SessionUpdates(from, to topo.NodeID) ([]Entry, bool) {
	found := false
	var out []Entry
	for si, se := range r.Sim.sessions {
		if se.From == from && se.To == to {
			found = true
			out = append(out, r.sessionMsgs[si]...)
		}
	}
	return out, found
}

// announce computes the contribution of one session from the sender's
// ranked per-prefix RIB (the scratch slots bgpRIB just assembled):
// exclusive guards, egress pipeline, pruning, receiver ingress pipeline.
// It returns the delivered (post-ingress) entries and the wire-view
// (post-egress) updates. Slots are visited in universe order, which is
// sorted once per run — the per-call map-key sort is gone.
func (s *Simulator) announce(se session, si int, stats *Stats) (out, sent []Entry) {
	devU := s.M.Devices[se.From]
	devV := s.M.Devices[se.To]
	sessCond := se.cond
	if sessCond == logic.False {
		return nil, nil
	}
	sc := &s.sc
	for pi := range sc.prefixes {
		entries := sc.slots[pi]
		if len(entries) == 0 {
			continue
		}
		notHigher := logic.True
		for _, ent := range entries {
			if ent.Route.Protocol != route.EBGP && ent.Route.Protocol != route.IBGP {
				continue // statics don't advertise unless redistributed
			}
			stats.Branches++
			s.taintSession(se)
			guard := s.F.And(notHigher, ent.Cond)
			notHigher = s.F.And(notHigher, s.F.Not(ent.Cond))
			eg := devU.ProcessEgress(ent.Route, devV)
			if eg.Verdict != behavior.Pass {
				stats.DroppedPolicy++
				continue
			}
			cond := s.F.AndAll(guard, sessCond)
			if s.Opts.PruneImpossible && s.F.Impossible(cond) {
				stats.DroppedImpossible++
				continue
			}
			if s.Opts.PruneOverK && s.F.MinFalse(cond) > s.Opts.K {
				stats.DroppedOverK++
				continue
			}
			sent = append(sent, Entry{Route: eg.Route, Cond: cond})
			ing := devV.ProcessIngress(eg.Route, devU)
			if ing.Verdict != behavior.Pass {
				stats.DroppedPolicy++
				continue
			}
			stats.observeCondLen(s.F.Len(cond))
			if s.Opts.Simplify && s.F.Len(cond) > SimplifyThreshold {
				cond = s.F.Simplify(cond)
			}
			out = append(out, Entry{Route: ing.Route, Cond: cond})
			stats.Delivered++
		}
	}
	return out, sent
}

// rank sorts entries best-first, emulating the router's two-stage
// selection: BGP routes are ordered among themselves by the BGP decision
// process (admin preference ignored), non-BGP routes by admin preference,
// and the two orders merge by comparing each BGP route's own admin
// preference against the non-BGP route's. A single pairwise comparator
// cannot express this (it would be intransitive across classes), hence the
// explicit merge.
func (s *Simulator) rank(es []Entry, at int) {
	ridOf := func(e Entry) uint32 {
		if e.Route.FromNode == topo.NoNode {
			return s.M.Net.Node(topo.NodeID(at)).RouterID
		}
		return s.M.Net.Node(e.Route.FromNode).RouterID
	}
	cmp := func(a, b Entry) int {
		if route.Better(a.Route, b.Route, ridOf(a), ridOf(b)) {
			return -1
		}
		if route.Better(b.Route, a.Route, ridOf(b), ridOf(a)) {
			return 1
		}
		if a.Route.FromNode != b.Route.FromNode {
			if a.Route.FromNode < b.Route.FromNode {
				return -1
			}
			return 1
		}
		if a.Cond != b.Cond {
			if a.Cond < b.Cond {
				return -1
			}
			return 1
		}
		return 0
	}
	bgp, other := s.sc.rankBGP[:0], s.sc.rankOther[:0]
	for _, e := range es {
		if e.Route.IsBGP() {
			bgp = append(bgp, e)
		} else {
			other = append(other, e)
		}
	}
	slices.SortStableFunc(bgp, cmp)
	slices.SortStableFunc(other, cmp)
	i, j := 0, 0
	for k := range es {
		switch {
		case i == len(bgp):
			es[k] = other[j]
			j++
		case j == len(other):
			es[k] = bgp[i]
			i++
		case other[j].Route.AdminPref < bgp[i].Route.AdminPref ||
			(other[j].Route.AdminPref == bgp[i].Route.AdminPref && other[j].Route.Protocol < bgp[i].Route.Protocol):
			es[k] = other[j]
			j++
		default:
			es[k] = bgp[i]
			i++
		}
	}
	s.sc.rankBGP, s.sc.rankOther = bgp, other // keep grown capacity
}

// sortPrefixes orders the run's prefix universe by address then length.
func sortPrefixes(ps []netaddr.Prefix) {
	slices.SortFunc(ps, func(a, b netaddr.Prefix) int {
		if a.Addr != b.Addr {
			if a.Addr < b.Addr {
				return -1
			}
			return 1
		}
		return int(a.Len) - int(b.Len)
	})
}

// applyAggregates injects aggregate entries and re-guards component
// entries at aggregation points (§5.3): the aggregate exists when every
// component is present; summary-only suppresses components while the
// aggregate is active, keeping the rules mutually exclusive. It operates
// on the scratch slots bgpRIB is assembling.
func (s *Simulator) applyAggregates(u int, inFamily map[netaddr.Prefix]bool) {
	cfg := s.M.Configs[u]
	if cfg.BGP == nil {
		return
	}
	sc := &s.sc
	slotOf := func(p netaddr.Prefix) ([]Entry, int) {
		if i, ok := sc.prefixIdx[p]; ok {
			return sc.slots[i], i
		}
		return nil, -1
	}
	for _, agg := range cfg.BGP.Aggregates {
		if !inFamily[agg.Prefix] {
			continue
		}
		aggCond := logic.True
		complete := true
		for _, c := range agg.Components {
			compCond := logic.False
			comp, _ := slotOf(c)
			for _, e := range comp {
				compCond = s.F.Or(compCond, e.Cond)
			}
			if compCond == logic.False {
				complete = false
				break
			}
			aggCond = s.F.And(aggCond, compCond)
		}
		if !complete || s.F.Impossible(aggCond) {
			continue
		}
		r := route.New(agg.Prefix, route.EBGP, topo.NodeID(u))
		r.OriginAtt = route.OriginIncomplete
		// Replace any previous aggregate entry for this prefix that we
		// generated (identified by OriginNode == u and empty AS path).
		aggEntries, ai := slotOf(agg.Prefix) // in family, so always present
		kept := aggEntries[:0]
		for _, e := range aggEntries {
			if !(e.Route.OriginNode == topo.NodeID(u) && len(e.Route.ASPath) == 0 && e.Route.OriginAtt == route.OriginIncomplete) {
				kept = append(kept, e)
			}
		}
		sc.slots[ai] = append(kept, Entry{Route: r, Cond: aggCond})
		if agg.SummaryOnly {
			notAgg := s.F.Not(aggCond)
			for _, c := range agg.Components {
				es, ci := slotOf(c)
				if ci < 0 {
					continue
				}
				for i := range es {
					es[i].Cond = s.F.And(es[i].Cond, notAgg)
				}
				// Drop components that became impossible.
				kept := es[:0]
				for _, e := range es {
					if !s.F.Impossible(e.Cond) {
						kept = append(kept, e)
					}
				}
				sc.slots[ci] = kept
			}
		}
	}
}

func (s *Simulator) entriesEqual(a, b []Entry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !route.SameAttrs(a[i].Route, b[i].Route) || a[i].Route.FromNode != b[i].Route.FromNode {
			return false
		}
		// Hash-consing makes identical conditions pointer-equal; only
		// structurally different formulas need the BDD equivalence check.
		if a[i].Cond != b[i].Cond && !s.F.Equivalent(a[i].Cond, b[i].Cond) {
			return false
		}
	}
	return true
}

// SessionInfo describes one directed BGP session for consumers that walk
// the session graph themselves (the racing detector floods over it).
type SessionInfo struct {
	From, To topo.NodeID
	IBGP     bool
	// Possible is false when the session can never establish (no physical
	// link for eBGP, or IGP-unreachable endpoints for iBGP).
	Possible bool
}

// SessionList returns every configured, both-ends-resolved BGP session.
// It builds the session base first, so it fails as a pass would on a
// memo the step cap cut off.
func (s *Simulator) SessionList() ([]SessionInfo, error) {
	if err := s.buildBase(); err != nil {
		return nil, err
	}
	out := make([]SessionInfo, 0, len(s.sessions))
	for _, se := range s.sessions {
		out = append(out, SessionInfo{From: se.From, To: se.To, IBGP: se.IBGP,
			Possible: se.cond != logic.False && s.F.SAT(se.cond)})
	}
	return out, nil
}
