package dist

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hoyan/internal/behavior"
	"hoyan/internal/config"
	"hoyan/internal/core"
	"hoyan/internal/igp"
	"hoyan/internal/logic"
	"hoyan/internal/netaddr"
	"hoyan/internal/topo"
)

// DefaultMaxShared is the default cap on resident assembled snapshots
// (core.Shared entries) per worker — the multi-session LRU size.
const DefaultMaxShared = 4

// modelSource holds one registered (topology, snapshot) pair and its
// once-assembled model. Sources are never evicted — only the much larger
// Shared (model + IGP memo) entries are — so a re-admitted session pays
// re-assembly, not re-registration.
type modelSource struct {
	net  *topo.Network
	snap config.Snapshot

	once  sync.Once
	model *core.Model
	err   error
}

func (ms *modelSource) assemble() (*core.Model, error) {
	ms.once.Do(func() {
		ms.model, ms.err = core.Assemble(ms.net, ms.snap, behavior.TrueProfiles())
	})
	return ms.model, ms.err
}

// sharedKey identifies one resident core.Shared: a model (by ModelHash)
// at one failure budget. Monolithic and region passes of the model share
// it: a region is an argument of the pass (core.Simulator.RunRegion).
type sharedKey struct {
	model string
	k     int
}

// sharedEntry is one LRU slot. The slot is claimed under sharedMu and
// filled outside it, once, by the first request for its key: two keys
// build concurrently, and nothing else the mutex guards waits for a
// build. sh is nil until then; an evicted slot still serves whoever holds
// it.
type sharedEntry struct {
	once sync.Once
	sh   atomic.Pointer[core.Shared]
	used int64 // LRU clock tick of the last hit
}

// Worker serves verification requests for one or more network
// snapshots. Each snapshot is registered under its ModelHash; requests
// select one by hash (empty = the default snapshot), so several
// concurrent sweep sessions — possibly from different coordinators —
// share one worker pool with no cross-talk. Per (model, k) the
// worker keeps a core.Shared (immutable model + IGP memo) in a small LRU,
// so interleaved sessions never pay per-pass re-assembly while memory
// stays bounded. A Shared about to be built starts from the memo of a
// resident one whose model reads the same IGP inputs (igp.Key): a second
// model that differs from a resident one by a policy edit propagates
// nothing.
type Worker struct {
	// IdleTimeout bounds the wait for the next request on a coordinator
	// connection; zero waits forever. Set before Serve.
	IdleTimeout time.Duration

	// MaxShared caps the resident core.Shared entries (the LRU size);
	// zero means DefaultMaxShared. Set before Serve. Evicting an entry
	// only drops the worker's reference: simulators already built from it
	// on open connections keep working (Shared is immutable), and the
	// next request for that key re-assembles.
	MaxShared int

	sharedMu    sync.Mutex
	sources     map[string]*modelSource // by ModelHash; "" aliases default
	defaultHash string
	shareds     map[sharedKey]*sharedEntry
	clock       int64
	evictions   int

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewWorker builds a worker over a network, registered as the default
// model (selected by requests with an empty model hash) and under its
// ModelHash.
func NewWorker(n *topo.Network, snap config.Snapshot) *Worker {
	src, hash := &modelSource{net: n, snap: snap}, ModelHash(n, snap)
	return &Worker{
		conns:       map[net.Conn]struct{}{},
		sources:     map[string]*modelSource{"": src, hash: src},
		shareds:     map[sharedKey]*sharedEntry{},
		defaultHash: hash,
	}
}

// AddModel registers an additional network snapshot under its ModelHash
// and returns the hash. A plan selects it as its ModelHash. Safe to call before Serve; concurrent registration
// while serving is also safe.
func (w *Worker) AddModel(n *topo.Network, snap config.Snapshot) string {
	h := ModelHash(n, snap)
	w.sharedMu.Lock()
	defer w.sharedMu.Unlock()
	if _, ok := w.sources[h]; !ok {
		w.sources[h] = &modelSource{net: n, snap: snap}
	}
	return h
}

// Evictions counts Shared entries dropped by the LRU (observability and
// tests).
func (w *Worker) Evictions() int {
	w.sharedMu.Lock()
	defer w.sharedMu.Unlock()
	return w.evictions
}

// Serve accepts coordinator connections until Close.
func (w *Worker) Serve(ln net.Listener) error {
	w.mu.Lock()
	w.ln = ln
	w.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			w.mu.Lock()
			closed := w.closed
			w.mu.Unlock()
			if closed {
				w.wg.Wait()
				return nil
			}
			return err
		}
		w.mu.Lock()
		if w.closed {
			w.mu.Unlock()
			conn.Close()
			continue
		}
		w.conns[conn] = struct{}{}
		w.mu.Unlock()
		w.wg.Add(1)
		go func() {
			defer w.wg.Done()
			defer func() {
				w.mu.Lock()
				delete(w.conns, conn)
				w.mu.Unlock()
				conn.Close()
			}()
			w.handle(conn)
		}()
	}
}

// Close stops the worker gracefully: no new connections are accepted, and
// open connections stop waiting for further requests (in-flight responses
// still flush).
func (w *Worker) Close() error {
	w.mu.Lock()
	w.closed = true
	ln := w.ln
	for conn := range w.conns {
		// Unblock pending reads; in-flight writes are unaffected.
		conn.SetReadDeadline(time.Now())
	}
	w.mu.Unlock()
	if ln != nil {
		return ln.Close()
	}
	return nil
}

// sharedFor returns the Shared for (model hash, failure budget k),
// assembling it on first use and touching its LRU slot. A region pass
// runs on the same Shared: the pass, not the Shared, is restricted to the
// region. A Shared whose memo is incomplete (core.Shared.Err) is an
// error: no pass runs on a cut-off RIB.
func (w *Worker) sharedFor(model string, k int) (*core.Shared, error) {
	w.sharedMu.Lock()
	src := w.sources[model]
	w.sharedMu.Unlock()
	if src == nil {
		return nil, fmt.Errorf("dist: worker does not hold model %q (default is %s)", model, w.defaultHash)
	}
	m, err := src.assemble()
	if err != nil {
		return nil, err
	}
	opts := core.DefaultOptions()
	opts.K = k
	sh := w.cachedShared(sharedKey{model: model, k: k}, func() *core.Shared {
		return core.SharedFrom(m, opts, w.residentMemo(m, opts), 0)
	})
	return sh, sh.Err()
}

// residentMemo returns the largest memo among the worker's resident
// Shareds that is valid for what the IGP reads of m under opts, or nil:
// what a build of a Shared for m starts from.
func (w *Worker) residentMemo(m *core.Model, opts core.Options) *igp.Memo {
	want := core.IGPKey(m, opts)
	var best *igp.Memo
	var bestKey sharedKey
	w.sharedMu.Lock()
	defer w.sharedMu.Unlock()
	for k, e := range w.shareds {
		sh := e.sh.Load()
		if sh == nil || sh.IGPMemo().Key() != want {
			continue
		}
		// Whichever memo is taken, the conditions are the same bytes
		// (igp.Build); the tie-break only makes the work done reproducible.
		memo := sh.IGPMemo()
		d := 1
		if best != nil {
			d = memo.NumDestinations() - best.NumDestinations()
		}
		if d > 0 || (d == 0 && lessKey(k, bestKey)) {
			best, bestKey = memo, k
		}
	}
	return best
}

// cachedShared looks key up in the LRU, building the Shared on a miss
// and evicting the stalest entries beyond the cap (MaxShared). The empty
// default alias resolves to the default hash, so a model is never
// resident under two keys. build runs outside sharedMu, once per slot.
func (w *Worker) cachedShared(key sharedKey, build func() *core.Shared) *core.Shared {
	if key.model == "" {
		key.model = w.defaultHash
	}
	w.sharedMu.Lock()
	w.clock++
	e := w.shareds[key]
	if e == nil {
		e = &sharedEntry{used: w.clock} // the newest slot: never the one evicted below
		w.shareds[key] = e
		limit := w.MaxShared
		if limit <= 0 {
			limit = DefaultMaxShared
		}
		for len(w.shareds) > limit {
			var oldest sharedKey
			var oldestUsed int64
			first := true
			for k2, e2 := range w.shareds {
				if first || e2.used < oldestUsed ||
					(e2.used == oldestUsed && lessKey(k2, oldest)) {
					oldest, oldestUsed, first = k2, e2.used, false
				}
			}
			delete(w.shareds, oldest)
			w.evictions++
		}
	}
	e.used = w.clock
	w.sharedMu.Unlock()
	e.once.Do(func() { e.sh.Store(build()) })
	return e.sh.Load()
}

// lessKey is the deterministic eviction tie-break across equally-stale
// LRU entries.
func lessKey(a, b sharedKey) bool {
	if a.model != b.model {
		return a.model < b.model
	}
	return a.k < b.k
}

// connSim is an executor's one simulator: derived from the Shared of its
// last pass and replaced when a pass needs another — a different model or
// budget, or the same key re-assembled after an eviction. Between passes
// on one Shared it keeps its factory only while the passes, record passes
// included, run from the same origins in the same region (DESIGN.md,
// "Recycling"): origins and region are the last pass's
// sh.M.FamilyOrigins and region index. The scheduler hands an executor
// passes of its last key first (readyQueue.pick), so runs of them meet
// one connSim.
type connSim struct {
	sh      *core.Shared
	sim     *core.Simulator
	origins []topo.NodeID
	region  int
}

// handle processes one coordinator connection: a stream of requests
// answered on the connection's simulator.
func (w *Worker) handle(conn net.Conn) {
	dec := json.NewDecoder(bufio.NewReader(conn))
	enc := json.NewEncoder(conn)
	sim := &connSim{}
	for {
		if w.IdleTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(w.IdleTimeout))
		}
		var req Request
		if err := dec.Decode(&req); err != nil {
			return // connection closed, idle too long, or garbage; drop it
		}
		// A dead connection ends the handler on every path — an encode
		// error must not leave us spinning decoding garbage.
		if err := enc.Encode(w.answer(req, sim)); err != nil {
			return
		}
	}
}

// answer runs one pass against the model the request names, on the
// Shared the worker holds for it (runPass).
func (w *Worker) answer(req Request, cs *connSim) Response {
	sh, err := w.sharedFor(req.Model, req.K)
	if err != nil {
		return Response{Prefix: req.Prefix, Region: req.Region, Error: err.Error()}
	}
	return runPass(req, sh, cs)
}

// runPass runs one pass on sh: monolithic, or restricted to the request's
// region of the model's partition (core.Model.Partition; a model without
// a usable cut fails every region pass with its refusal, and plans for
// such a model carry no regions) — a home pass (no imported summary)
// captures the prefix's cut summary into the response, an import pass
// consumes the request's. A core refusal (*core.UnsoundCut) answers with
// Refused, not Error — it is deterministic, so the unit falls back to
// monolithic simulation instead of retrying. The pass runs on cs, which it
// keeps as the last pass left it when both passes have one key (family
// origins and region), and Resets otherwise; Kept in the response says
// which. Everything the pass learned leaves in the response: the
// verdicts, and the Record when the request asks for it. A worker's
// connections (Worker.answer) and in-process executors (Local) both run
// passes here.
func runPass(req Request, sh *core.Shared, cs *connSim) Response {
	resp := Response{Prefix: req.Prefix, Region: req.Region}
	fail := func(err error) Response {
		resp.Error = err.Error()
		return resp
	}
	p, err := netaddr.Parse(req.Prefix)
	if err != nil {
		return fail(err)
	}
	var pt *core.Partition // nil for a monolithic pass
	ri := -1
	if req.Region != "" {
		if pt, err = sh.M.Partition(); err != nil {
			return fail(err)
		}
		if ri = pt.RegionIndex(req.Region); ri < 0 {
			return fail(fmt.Errorf("dist: model %q has no region %q", req.Model, req.Region))
		}
	}
	origins := sh.M.FamilyOrigins(p)
	switch {
	case cs.sh != sh:
		cs.sh, cs.sim = sh, sh.NewSimulator()
	case ri != cs.region || !slices.Equal(origins, cs.origins):
		cs.sim.Reset()
	default:
		// The pass keeps what the last one built, because it would build
		// it again: its conditions grow along paths out of the same
		// origins, over the same nodes. A record pass too: it exports
		// the same bytes as a fresh simulator's (logic.Factory.Export).
		resp.Kept = true
	}
	cs.origins, cs.region = origins, ri
	t0 := time.Now()
	var res *core.Result
	if pt == nil {
		res, err = cs.sim.Run(p)
	} else {
		var cut *core.CutSummary
		res, cut, err = cs.sim.RunRegion(p, pt, ri, req.Summary)
		var uc *core.UnsoundCut
		if errors.As(err, &uc) {
			resp.Refused = uc.Reason
			return resp
		}
		if req.Summary == nil {
			resp.Summary = cut
		}
	}
	if err != nil {
		return fail(err)
	}
	resp.Elapsed = time.Since(t0)
	resp.Summaries = summarize(res, sh.M, p, req.K, pt, ri)
	if req.Record {
		resp.Record = record(res, sh.M, p, resp.Summaries)
	}
	return resp
}

// record exports what the pass learned beyond verdicts: the taint's
// devices by name and its prefix universe, and the reachability
// condition behind every verdict as one factory-independent Portable.
func record(res *core.Result, model *core.Model, p netaddr.Prefix, verdicts []RouterSummary) *Record {
	rec := &Record{}
	t := res.Taint()
	for _, id := range t.Nodes {
		rec.TaintDevices = append(rec.TaintDevices, model.Net.Node(id).Name)
	}
	sort.Strings(rec.TaintDevices)
	for _, q := range t.Universe {
		rec.Universe = append(rec.Universe, q.String())
	}
	sort.Strings(rec.Universe)
	if len(verdicts) > 0 {
		conds := make([]logic.F, len(verdicts))
		for i, v := range verdicts {
			conds[i] = res.ReachCond(v.Node, core.AnyRouteTo(p))
		}
		rec.Conds = res.Sim.F.Export(conds...)
	}
	return rec
}

// summarize turns a simulation result into per-router verdicts, in the
// model's node order, for every BGP speaker — of region ri when pt is
// non-nil.
func summarize(res *core.Result, model *core.Model, p netaddr.Prefix, k int, pt *core.Partition, ri int) []RouterSummary {
	var out []RouterSummary
	pat := core.AnyRouteTo(p)
	for _, node := range model.Net.Nodes() {
		if model.Configs[node.ID].BGP == nil || (pt != nil && pt.RegionOf(node.ID) != ri) {
			continue
		}
		rs := RouterSummary{Router: node.Name, Node: node.ID, Reachable: res.Reachable(node.ID, pat)}
		if rs.Reachable {
			rs.MinFailures, _ = res.MinFailuresToLose(node.ID, pat)
			if rs.MinFailures > k {
				rs.MinFailures = -1
			}
		}
		out = append(out, rs)
	}
	return out
}
