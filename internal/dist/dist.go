// Package dist runs sweep plans — the deployment note of §8: "Hoyan could
// be run in a distributed way to get better performance". The unit of
// distribution is the same as the paper's unit of parallelism: one prefix
// simulation, and the same per-prefix independence that lets Plankton
// partition its model-checking work makes every pass here safely
// retryable.
//
// A Plan (plan.go) names the work; Run (sched.go) is the one scheduler
// that drives it over a Pool of executors — in-process ones that run the
// pass body as a function on the run's one Shared (Local), or TCP
// connections to remote workers (a Coordinator). Remote workers hold the full network model
// (configurations are distributed out of band, e.g. a shared network
// directory) and answer JSON-lines requests:
//
//	-> {"prefix":"10.0.0.0/24","k":3,"record":true}
//	<- {"prefix":"10.0.0.0/24","summaries":[…],"record":{"taint_devices":[…],"universe":[…],"conds":{…}}}
//
// The response is the one way a pass's results leave either kind of
// executor: its verdicts and, when the request asks, its Record.
//
// The scheduler fans passes out with work stealing and a resilience
// layer: per-request deadlines, re-queue of in-flight passes when a
// connection dies, reconnection with exponential backoff and jitter,
// bounded per-pass retries, hedged re-dispatch of stragglers to idle
// executors, and an AllowPartial mode that degrades to a structured
// failure report instead of an all-or-nothing error.
package dist

import (
	"math/rand"
	"time"

	"hoyan/internal/core"
	"hoyan/internal/igp"
	"hoyan/internal/logic"
	"hoyan/internal/topo"
)

// Request asks a worker to verify one prefix at failure budget K.
type Request struct {
	Prefix string `json:"prefix"`
	K      int    `json:"k"`
	// Model selects which of the worker's registered models answers the
	// request, by ModelHash. Empty selects the worker's default snapshot.
	// A hash the worker does not hold is a loud per-request error, never
	// a silent fallback — two sessions over one pool must not cross-talk.
	Model string `json:"model,omitempty"`
	// Region restricts the pass to one region of the model's partition
	// (modular verification): the worker runs a region-restricted
	// simulation, whose BGP state covers that region, on the simulator
	// of the model's Shared — the IGP memo and session base are the
	// model's — and answers with that region's verdicts only. Empty means
	// monolithic simulation.
	Region string `json:"region,omitempty"`
	// Summary carries the home pass's exported cut summary on import
	// passes (Region set, Summary non-nil); a home pass has Region set
	// and Summary nil and gets the captured summary back in the
	// Response.
	Summary *core.CutSummary `json:"summary,omitempty"`
	// Record asks for the pass's Record. The export holds equivalent
	// conditions on every executor, whether the pass kept its
	// connection's factory or not (DESIGN.md, "Recycling"); their node
	// order, and so their bytes, can follow the factory's history.
	Record bool `json:"record,omitempty"`
}

// Record is what a monolithic pass learned beyond its verdicts: the
// dependencies and conditions a baseline's class record keeps.
type Record struct {
	// TaintDevices are the devices the simulation consulted (core.Taint),
	// by name; Universe is its prefix universe. Both sorted.
	TaintDevices []string `json:"taint_devices"`
	Universe     []string `json:"universe,omitempty"`
	// Conds holds the reachability condition at every verdict's router as
	// one multi-root Portable (root i at Response.Summaries[i].Router).
	Conds *logic.Portable `json:"conds,omitempty"`
}

// RouterSummary is one router's verdict for the prefix — the one verdict
// type every executor answers in and every report is folded from.
type RouterSummary struct {
	Router string `json:"router"`
	// Node is the router's node ID: verdicts gathered region by region
	// sort back into the model's node order on it.
	Node topo.NodeID `json:"node"`
	// Reachable with all links up.
	Reachable bool `json:"reachable"`
	// MinFailures breaking reachability; -1 when it survives the budget.
	MinFailures int `json:"min_failures"`
}

// Response carries a worker's result.
type Response struct {
	Prefix    string          `json:"prefix"`
	Summaries []RouterSummary `json:"summaries,omitempty"`
	Error     string          `json:"error,omitempty"`
	// Region echoes the request's region so the coordinator can detect
	// stream desync between two passes of the same prefix.
	Region string `json:"region,omitempty"`
	// Summary is the cut summary captured by a home region pass.
	Summary *core.CutSummary `json:"summary,omitempty"`
	// Refused explains a modular refusal (core.UnsoundCut): the cut
	// cannot express this prefix's behavior, deterministically — the
	// unit falls back to a monolithic pass, it is never retried.
	Refused string `json:"refused,omitempty"`
	// Elapsed is the propagation time of the pass (the Figure 8 sample).
	Elapsed time.Duration `json:"elapsed_ns,omitempty"`
	// Record answers Request.Record.
	Record *Record `json:"record,omitempty"`
	// Kept reports that the pass ran on the factory the connection's last
	// pass left, not on a reset one (DESIGN.md, "Recycling").
	Kept bool `json:"kept,omitempty"`
}

// Options tunes the scheduler's resilience policy. The zero value of
// every field selects the default from DefaultOptions.
type Options struct {
	// DialTimeout bounds each connection attempt.
	DialTimeout time.Duration
	// RequestTimeout bounds one request round-trip (encode + simulate +
	// decode); a timed-out connection is considered dead and its pass is
	// re-queued.
	RequestTimeout time.Duration
	// MaxAttempts caps application-level retries per pass (a worker
	// answered with an error). Connection-level re-queues do not count:
	// they are bounded by MaxConnFailures per worker instead.
	MaxAttempts int
	// MaxConnFailures is the number of consecutive connection-level
	// failures (failed dials, dead connections, timeouts) after which a
	// worker is abandoned. A completed request resets the count.
	MaxConnFailures int
	// BackoffBase and BackoffMax shape the exponential backoff (with
	// jitter in [d/2, d]) between connection attempts.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// HedgeAfter re-dispatches an in-flight pass to an idle worker once
	// it has been outstanding this long (straggler hedging); the first
	// result wins. Zero disables hedging.
	HedgeAfter time.Duration
	// AllowPartial degrades gracefully: Run returns the completed subset
	// plus a structured report of failed prefixes and worker errors
	// instead of an all-or-nothing error.
	AllowPartial bool
}

// DefaultOptions returns the production defaults.
func DefaultOptions() Options {
	return Options{
		DialTimeout:     2 * time.Second,
		RequestTimeout:  30 * time.Second,
		MaxAttempts:     3,
		MaxConnFailures: 3,
		BackoffBase:     50 * time.Millisecond,
		BackoffMax:      2 * time.Second,
	}
}

// withDefaults fills zero fields from DefaultOptions.
func (o Options) withDefaults() Options {
	d := DefaultOptions()
	if o.DialTimeout == 0 {
		o.DialTimeout = d.DialTimeout
	}
	if o.RequestTimeout == 0 {
		o.RequestTimeout = d.RequestTimeout
	}
	if o.MaxAttempts == 0 {
		o.MaxAttempts = d.MaxAttempts
	}
	if o.MaxConnFailures == 0 {
		o.MaxConnFailures = d.MaxConnFailures
	}
	if o.BackoffBase == 0 {
		o.BackoffBase = d.BackoffBase
	}
	if o.BackoffMax == 0 {
		o.BackoffMax = d.BackoffMax
	}
	return o
}

// backoff returns the jittered delay before attempt n (1-based).
func (o Options) backoff(rng *rand.Rand, n int) time.Duration {
	d := o.BackoffBase
	for i := 1; i < n; i++ {
		d *= 2
		if d >= o.BackoffMax {
			d = o.BackoffMax
			break
		}
	}
	if d <= 0 {
		return 0
	}
	half := d / 2
	return half + time.Duration(rng.Int63n(int64(half)+1))
}

// Coordinator is the pool of remote workers at Addrs: one TCP executor
// per address.
type Coordinator struct {
	Addrs []string
	// Opts tunes resilience; the zero value means DefaultOptions.
	Opts Options
}

// RunClasses verifies prefix behavior classes on the remote workers:
// each class is a member list with the representative first
// (core.Model.Classes provides the partition), only representatives are
// dispatched, and a representative's summaries are replicated to every
// member — the RouterSummary carries no prefix, so replication is exact.
// A representative that permanently fails fails all of its members.
func (c *Coordinator) RunClasses(classes [][]string, k int) (*Result, error) {
	return Run(ClassPlan(classes, k), c)
}

// PrefixFailure reports one prefix that never completed.
type PrefixFailure struct {
	Prefix string
	// Dispatches counts how many times the prefix was handed to a
	// worker (including re-queues and hedges).
	Dispatches int
	LastError  string
}

// Result aggregates one run of a plan.
type Result struct {
	// ByPrefix maps every settled prefix — simulated, replicated from its
	// class representative or resumed from the journal — to its
	// per-router summaries in the model's node order.
	ByPrefix map[string][]RouterSummary
	// Audits holds the summaries of the plan's audit units by prefix:
	// full simulations to compare against ByPrefix.
	Audits map[string][]RouterSummary
	// Records holds, by prefix, the Record of every settled unit whose
	// pass exported one: the representatives of a plan with Capture set —
	// resumed ones from the journal — and the audits of Replayed classes.
	Records map[string]*Record
	// IGP is the IGP memo the run's in-process executors simulated on (the
	// one Shared Local builds); nil when the run had none.
	IGP *igp.Memo
	// SimTime is the propagation time spent on each dispatched
	// representative, all passes added up.
	SimTime map[string]time.Duration
	// Assigned counts passes completed per executor.
	Assigned map[string]int
	// KeptPasses counts completed passes that ran on the factory their
	// executor's last pass left (Response.Kept).
	KeptPasses int
	// Executors is the number of executors the run opened.
	Executors int
	// Failed reports prefixes that never completed, sorted by prefix.
	// Empty on a fully successful run.
	Failed []PrefixFailure
	// WorkerErrors logs connection and request failures per executor —
	// the structured report of AllowPartial mode.
	WorkerErrors map[string][]string
	// Requeued counts passes re-queued because a worker connection died
	// with the pass in flight.
	Requeued int
	// Retried counts application-level retries (a worker answered with
	// an error and the pass was re-dispatched).
	Retried int
	// Hedged counts speculative duplicate dispatches of stragglers.
	Hedged int
	// Classes counts the representative simulations dispatched.
	Classes int
	// Replicated counts member prefixes whose summaries were copied from
	// their class representative instead of simulated.
	Replicated int
	// Resumed counts classes settled from the plan's journal without
	// touching a worker.
	Resumed int
	// Redispatched counts classes that were in flight — dispatched but
	// unfinished — at a coordinator crash and were dispatched again on
	// resume, the coordinator-death analogue of Requeued.
	Redispatched int
	// ModularPasses counts region-restricted passes completed (home +
	// import); zero for a monolithic plan.
	ModularPasses int
	// ModularRefused counts units of a modular plan that fell back to a
	// monolithic pass: the plan named no home region for their class, or
	// a worker refused the cut (core.UnsoundCut). Refusals holds each
	// one's reason by prefix.
	ModularRefused int
	Refusals       map[string]string
}
