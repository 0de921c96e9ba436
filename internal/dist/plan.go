package dist

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"hoyan/internal/core"
	"hoyan/internal/igp"
)

// Plan is everything one sweep dispatches, whichever executors run it.
// Its parts are orthogonal by construction: any mix of replayed classes,
// audits, region passes and a journal is the same scheduler run.
type Plan struct {
	// K is the failure budget of every pass. A journal written for
	// another budget refuses the plan.
	K int
	// ModelHash fingerprints (ModelHash) the model the plan verifies.
	// Remote workers run every pass against the model registered under it
	// (empty selects their default), and a journal written for another
	// model refuses the plan, whichever executors run it.
	ModelHash string
	// Classes is the dispatch partition.
	Classes []Class
	// Regions names the regions of the model's partition, in partition
	// order. Empty means monolithic: every unit is one whole-WAN pass.
	Regions []string
	// Journal, when set, makes the run a crash-safe session: a fresh
	// journal gets the plan's ModelHash, K and class partition as its
	// header, a class whose report the journal already holds settles from
	// it, and every other class's report is journaled (and fsync'd)
	// before it settles.
	Journal *Session

	// Model binds the plan to an assembled model for in-process executors
	// (Local), which simulate it under core.DefaultOptions at budget K, as
	// remote workers do the model they resolve ModelHash to.
	Model *core.Model
	// IGP is an IGP memo the caller kept from an earlier sweep, nil when it
	// has none. In-process executors start from it: the run's Shared, when
	// its model reads the same IGP inputs (igp.Key), shares its conditions
	// and propagates only the destinations it lacks. Remote workers look
	// among their own resident Shareds instead.
	IGP *igp.Memo
	// Capture asks every representative's pass for its Record
	// (Result.Records), and the journal keeps it on the class's done line.
	Capture bool
}

// ClassPlan is the plain monolithic plan of a class partition (member
// lists, representative first): nothing replayed, audited or journaled.
func ClassPlan(classes [][]string, k int) *Plan {
	p := &Plan{K: k}
	for _, members := range classes {
		p.Classes = append(p.Classes, Class{Members: members})
	}
	return p
}

// Class is one prefix behavior class of a plan.
type Class struct {
	// Members are the class's prefixes, representative first
	// (core.Model.Classes order). Only the representative is simulated;
	// its summaries settle every member.
	Members []string
	// Home names the region originating the class's family
	// (core.Partition.FamilyHome). In a plan with Regions, an empty Home
	// marks a class the caller already refused — origins spanning
	// regions, say — which runs as one monolithic pass.
	Home string
	// Replayed marks a class the caller settles itself, from the verdicts
	// its baseline holds: the representative is not simulated and the
	// class has no entry in Result.ByPrefix. Its Audit prefixes still run,
	// and each answers with its Record, for the caller to compare with the
	// baseline's conditions.
	Replayed bool
	// Audit lists prefixes of the class to simulate in full on the side
	// — members whose replication, or the representative whose replay,
	// the caller wants checked. Their summaries land in Result.Audits.
	Audit []string
}

// unit is the scheduler's state for one prefix simulation: a small pass
// state machine. A monolithic unit is one pass. A modular unit runs its
// home region, then every other region in partition order with the home
// pass's cut summary, one pass at a time; the first refusal discards the
// region verdicts and re-runs the unit as one monolithic pass. Passes of
// one unit never overlap, so the passes a plan takes — and which units
// fall back — do not depend on the executors. A unit that answers with a
// Record is monolithic from the start: a record is whole-WAN, and the one
// it is compared with or stored as was made by a monolithic pass.
type unit struct {
	class   int      // index into Plan.Classes
	prefix  string   // the prefix simulated
	members []string // prefixes the unit settles (a representative); nil for audits
	record  bool     // the unit's pass answers with its Record
	home    int      // index of the home region in the plan's Regions; -1 = monolithic from the start

	// The pass state. seq numbers the unit's passes: an answer carrying a
	// stale seq (a hedge copy the unit no longer waits for) is dropped.
	seq      int
	stage    int  // region passes absorbed so far
	mono     bool // the current pass is monolithic
	cut      *core.CutSummary
	verdicts []RouterSummary
	rec      *Record
	elapsed  time.Duration
	refused  string

	// Scheduler bookkeeping, owned by Run's loop.
	origins    int       // the family origins' number in the run (internOrigins); 0 without a Model
	copies     int       // in-flight copies of the current pass
	since      time.Time // when the current pass was first handed out
	dispatches int
	attempts   int // application-level failures of the current pass
	lastErr    string
	settled    bool // completed or permanently failed
	failed     bool
}

// units expands the plan into its dispatch list: per class, the
// representative (unless replayed) and then its audits. Empty classes
// and repeated prefixes are dropped.
func (p *Plan) units() []*unit {
	var out []*unit
	seen := map[string]bool{}
	add := func(u *unit, c *Class) {
		if seen[u.prefix] {
			return
		}
		seen[u.prefix] = true
		u.home = -1
		if !u.record {
			u.home = slices.Index(p.Regions, c.Home)
			if u.home < 0 && len(p.Regions) > 0 {
				u.refused = "no home region"
			}
		}
		u.mono = u.home < 0
		out = append(out, u)
	}
	for i := range p.Classes {
		c := &p.Classes[i]
		if len(c.Members) == 0 {
			continue
		}
		if !c.Replayed {
			add(&unit{class: i, prefix: c.Members[0], members: c.Members, record: p.Capture}, c)
		}
		for _, a := range c.Audit {
			add(&unit{class: i, prefix: a, record: c.Replayed}, c)
		}
	}
	return out
}

// pass is one request to an executor: the unit's current pass.
type pass struct {
	u      *unit
	seq    int
	region string           // "" = monolithic
	cut    *core.CutSummary // imported on passes after the home pass
	hedge  bool
}

// request completes req, the run's request template (budget and model),
// into the pass's request.
func (ps *pass) request(req Request) Request {
	req.Prefix, req.Region, req.Summary, req.Record = ps.u.prefix, ps.region, ps.cut, ps.u.record
	return req
}

// next returns the unit's current pass.
func (u *unit) next(regions []string) *pass {
	ps := &pass{u: u, seq: u.seq}
	switch {
	case u.mono:
	case u.stage == 0:
		ps.region = regions[u.home]
	case u.stage <= u.home:
		ps.region, ps.cut = regions[u.stage-1], u.cut
	default:
		ps.region, ps.cut = regions[u.stage], u.cut
	}
	return ps
}

// absorb folds the answer to the unit's current pass into the unit and
// reports whether the unit is complete; when it is not, its next pass is
// ready.
func (u *unit) absorb(resp *Response, regions int, out *Result) (done bool) {
	u.elapsed += resp.Elapsed
	if u.mono {
		u.verdicts, u.rec = resp.Summaries, resp.Record
		return true
	}
	out.ModularPasses++
	u.seq++
	if resp.Refused != "" || (u.stage == 0 && resp.Summary == nil) {
		u.refused = resp.Refused
		if u.refused == "" {
			u.refused = "home pass exported no cut summary"
		}
		u.mono, u.cut, u.verdicts = true, nil, nil
		return false
	}
	if u.stage == 0 {
		u.cut = resp.Summary
	}
	u.verdicts = append(u.verdicts, resp.Summaries...)
	if u.stage++; u.stage < regions {
		return false
	}
	// Region passes answer region by region; the fold wants node order.
	slices.SortFunc(u.verdicts, func(a, b RouterSummary) int { return int(a.Node) - int(b.Node) })
	return true
}

// settle records summaries as the report of every member prefix — the
// one place a representative is replicated to its class — and keeps the
// representative's record, if its pass made one.
func (r *Result) settle(members []string, summaries []RouterSummary, rec *Record) {
	for _, m := range members {
		r.ByPrefix[m] = summaries
	}
	r.Replicated += len(members) - 1
	if rec != nil {
		r.Records[members[0]] = rec
	}
}

// finish turns the scheduler's final unit states into the Result: every
// completed representative settles its class, audits land on the side,
// a failed representative fails every member of its class, and refusals
// are counted. It returns the run's error: nil when nothing failed or
// partial results are allowed.
func (r *Result) finish(units []*unit, allowPartial bool) error {
	for _, u := range units {
		if u.refused != "" {
			r.ModularRefused++
			r.Refusals[u.prefix] = u.refused
		}
		switch {
		case !u.settled: // the run was aborted first: a crash, not a failure
		case u.failed:
			fail := PrefixFailure{Prefix: u.prefix, Dispatches: u.dispatches, LastError: u.lastErr}
			if u.members == nil {
				delete(r.ByPrefix, u.prefix) // an audit that never ran leaves its prefix unverified
				r.Failed = append(r.Failed, fail)
			}
			for _, m := range u.members {
				fail.Prefix = m
				r.Failed = append(r.Failed, fail)
			}
		case u.members != nil:
			r.settle(u.members, u.verdicts, u.rec)
			r.SimTime[u.prefix] = u.elapsed
		default:
			r.Audits[u.prefix] = u.verdicts
			if u.rec != nil {
				r.Records[u.prefix] = u.rec
			}
		}
	}
	slices.SortFunc(r.Failed, func(a, b PrefixFailure) int { return strings.Compare(a.Prefix, b.Prefix) })
	if len(r.Failed) == 0 || allowPartial {
		return nil
	}
	f := r.Failed[0]
	return fmt.Errorf("dist: %d/%d prefixes failed (first: %s after %d dispatches: %s)",
		len(r.Failed), len(r.ByPrefix)+len(r.Failed), f.Prefix, f.Dispatches, f.LastError)
}
