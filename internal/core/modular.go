package core

import (
	"fmt"

	"hoyan/internal/behavior"
	"hoyan/internal/logic"
	"hoyan/internal/netaddr"
	"hoyan/internal/route"
)

// restriction scopes one Simulator.Run to a region of a Partition. Nil
// on a Simulator means monolithic simulation (the default). A region
// pass is the monolithic fixpoint over the node mask in: a session is
// live when both its ends are inside, a cut (capture) session when only
// its sender is, an inject session when only its receiver is, and dead
// otherwise — positions, not a stored mode.
type restriction struct {
	pt     *Partition
	region int
	in     []bool // per node: node's region == region
	// contrib holds the pinned post-ingress contribution of each inject
	// session (nil for every other session).
	contrib [][]Entry
}

// CutMsg is one route update crossing a region cut, as seen on the wire
// (post-egress, pre-ingress — the same vantage point as SessionUpdates).
// Sess indexes the model's deterministic session table, identical across
// every simulator of one model; From/To double-check it on import.
type CutMsg struct {
	Sess     int
	From, To string
	Route    route.Route
	Cond     int // root index into the summary's Conds
}

// CutSummary carries every route a region pass exported across its cuts,
// with conditions exported factory-independently so any later pass — in
// this process or another — can import them. The home pass of a prefix
// family produces the summary; import passes consume it, and their own
// (normally empty) summary is the re-export leak check.
type CutSummary struct {
	Prefix netaddr.Prefix
	Region string
	Msgs   []CutMsg
	Conds  *logic.Portable
}

// UnsoundCut reports that a modular pass detected its cut assumptions do
// not hold for this prefix family — the caller must fall back to a
// monolithic simulation for it. It is a refusal, not a verdict: modular
// mode never guesses when the summary cannot express the behavior.
type UnsoundCut struct {
	Prefix netaddr.Prefix
	Region string
	Reason string
}

func (e *UnsoundCut) Error() string {
	return fmt.Sprintf("core: modular cut unsound for %s in region %s: %s", e.Prefix, e.Region, e.Reason)
}

// RunRegion simulates one prefix family restricted to a region of the
// partition: it is Run over the region's node mask. Nodes outside the
// region are never queued; routes entering over a cut come from the
// imported summary (nil for the home pass, which needs none by the
// one-hop export property the leak check enforces); routes leaving over
// a cut are announced but delivered to no one, and their wire view is
// the returned summary. The Result holds the converged RIBs of the
// region's nodes only.
//
// Refusals (an *UnsoundCut error) cover oscillation damping and
// re-export leaks. Damping picks one stable state by the order the
// fixpoint dequeues nodes in, and a region pass dequeues in a different
// order from the monolithic run, so its state, and the summary built
// from it, need not be the monolithic one. A leak is an import pass
// whose own summary is non-empty: it observed routes crossing a second
// cut, which the two-round modular schedule cannot deliver.
func (s *Simulator) RunRegion(prefix netaddr.Prefix, pt *Partition, region int, imported *CutSummary) (*Result, *CutSummary, error) {
	if s.restr != nil {
		return nil, nil, fmt.Errorf("core: RunRegion is not reentrant")
	}
	if err := s.buildBase(); err != nil { // before the summary's conditions enter the factory
		return nil, nil, err
	}
	restr := &restriction{
		pt:      pt,
		region:  region,
		in:      make([]bool, s.M.Net.NumNodes()),
		contrib: make([][]Entry, len(s.sessions)),
	}
	for id := range restr.in {
		restr.in[id] = pt.nodeRegion[id] == region
	}
	if imported != nil {
		if err := s.importSummary(restr, imported); err != nil {
			return nil, nil, err
		}
	}
	s.restr = restr
	res, err := s.Run(prefix)
	s.restr = nil
	if err != nil {
		return nil, nil, err
	}
	if res.Stats.FrozenSessions > 0 {
		return nil, nil, &UnsoundCut{Prefix: prefix, Region: pt.RegionName(region),
			Reason: fmt.Sprintf("%d sessions frozen by oscillation damping", res.Stats.FrozenSessions)}
	}
	out := s.captureSummary(res, restr, prefix)
	if imported != nil && len(out.Msgs) > 0 {
		reason := fmt.Sprintf("%d routes re-exported across a second cut (transit or remote aggregation):", len(out.Msgs))
		for i, msg := range out.Msgs {
			if i == 3 {
				reason += " ..."
				break
			}
			reason += fmt.Sprintf(" %s->%s %s", msg.From, msg.To, msg.Route.Prefix)
		}
		return nil, nil, &UnsoundCut{Prefix: prefix, Region: pt.RegionName(region), Reason: reason}
	}
	return res, out, nil
}

// importSummary pins each inject session's contribution from the
// summary's wire messages: the receiver's ingress pipeline and the
// simplification policy run here, exactly as the live announce would
// have, so the pinned contribution matches the monolithic one entry for
// entry. Messages for sessions that do not enter the pass's region are
// skipped — one home summary serves every import pass. A summary arrives
// off the wire, so it is checked whole before anything enters the
// factory: every message names a session of this model by its endpoints
// and a condition the summary carries, and every condition ranges over
// the model's link variables only.
func (s *Simulator) importSummary(restr *restriction, sum *CutSummary) error {
	if len(sum.Msgs) == 0 {
		return nil
	}
	if sum.Conds == nil {
		return fmt.Errorf("core: modular: summary for %s has %d messages and no conditions", sum.Prefix, len(sum.Msgs))
	}
	for _, msg := range sum.Msgs {
		if msg.Sess < 0 || msg.Sess >= len(s.sessions) {
			return fmt.Errorf("core: modular: summary for %s names session %d of %d", sum.Prefix, msg.Sess, len(s.sessions))
		}
		se := &s.sessions[msg.Sess]
		if from, to := s.M.Net.Node(se.From).Name, s.M.Net.Node(se.To).Name; from != msg.From || to != msg.To {
			return fmt.Errorf("core: modular: summary session %d is %s->%s, expected %s->%s (model mismatch?)",
				msg.Sess, msg.From, msg.To, from, to)
		}
		if msg.Cond < 0 || msg.Cond >= sum.Conds.NumRoots() {
			return fmt.Errorf("core: modular: summary for %s names condition %d of %d", sum.Prefix, msg.Cond, sum.Conds.NumRoots())
		}
	}
	links := logic.Var(s.M.Net.NumLinks())
	for i := 2; i < sum.Conds.NumNodes(); i++ {
		if sh := sum.Conds.NodeShape(i); sh.Kind == logic.WalkVar && sh.Variable >= links {
			return fmt.Errorf("core: modular: summary for %s names variable %d; the model has %d links", sum.Prefix, sh.Variable, links)
		}
	}
	conds := sum.Conds.Import(s.F)
	for _, msg := range sum.Msgs {
		se := &s.sessions[msg.Sess]
		if restr.in[se.From] || !restr.in[se.To] {
			continue // not an inject session of this pass
		}
		devU, devV := s.M.Devices[se.From], s.M.Devices[se.To]
		ing := devV.ProcessIngress(msg.Route, devU)
		if ing.Verdict != behavior.Pass {
			continue
		}
		cond := conds[msg.Cond]
		if s.Opts.Simplify && s.F.Len(cond) > SimplifyThreshold {
			cond = s.F.Simplify(cond)
		}
		restr.contrib[msg.Sess] = append(restr.contrib[msg.Sess], Entry{Route: ing.Route, Cond: cond})
	}
	return nil
}

// captureSummary exports the wire view of every capture session: what
// the fixpoint last sent over it.
func (s *Simulator) captureSummary(res *Result, restr *restriction, prefix netaddr.Prefix) *CutSummary {
	out := &CutSummary{Prefix: prefix, Region: restr.pt.RegionName(restr.region)}
	var roots []logic.F
	for si := range s.sessions {
		se := &s.sessions[si]
		if !restr.in[se.From] || restr.in[se.To] {
			continue // not a capture session of this pass
		}
		for _, e := range res.sessionMsgs[si] {
			out.Msgs = append(out.Msgs, CutMsg{
				Sess:  si,
				From:  s.M.Net.Node(se.From).Name,
				To:    s.M.Net.Node(se.To).Name,
				Route: e.Route,
				Cond:  len(roots),
			})
			roots = append(roots, e.Cond)
		}
	}
	out.Conds = s.F.Export(roots...)
	return out
}
