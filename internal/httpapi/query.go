package httpapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hoyan"
	"hoyan/internal/qc"
)

// The query plane serves sub-millisecond answers from compiled sweep
// results (internal/qc) instead of simulating. Reads are lock-free: the
// active snapshot is an atomic pointer, per-request evaluation state
// comes from a per-snapshot pool, and the registry mutex is only taken
// by publish/activate/list — never on the query path. A query that loads
// the active pointer just before a switch answers from the snapshot it
// loaded; that is the staleness contract (DESIGN.md, "Query plane").

// snapEntry is one published compiled snapshot. The registry lists the
// active snapshot and the staged ones; a superseded snapshot leaves it
// at the switch. Queries that loaded it before the switch still hold a
// valid pointer and finish on it: the Go runtime reclaims the memory
// when the last of them returns.
type snapEntry struct {
	id        string
	snap      *qc.Snapshot
	published time.Time
	pool      sync.Pool // *evalState sized for this snapshot
}

// evalState is the per-request scratch a query borrows: one failure-set
// bitset and one evaluation array, both pre-sized so the eval loop
// allocates nothing.
type evalState struct {
	fs *qc.FailureSet
	sc *qc.Scratch
}

func (e *snapEntry) getState() *evalState {
	st := e.pool.Get().(*evalState)
	st.fs.Reset()
	return st
}

// queryPlane is the snapshot registry.
type queryPlane struct {
	active atomic.Pointer[snapEntry]

	mu      sync.Mutex
	seq     int
	entries []*snapEntry // the active and the staged, in publication order
}

// publish compiles a store and registers the snapshot; when activate is
// set it also becomes the serving snapshot atomically. Compilation runs
// outside the registry lock — queries against the current snapshot are
// never stalled by a publish.
func (q *queryPlane) publish(st *hoyan.ResultStore, activate bool) (*snapEntry, error) {
	snap, err := qc.CompileStore(st)
	if err != nil {
		return nil, err
	}
	e := &snapEntry{snap: snap, published: time.Now()}
	e.pool.New = func() any {
		return &evalState{fs: snap.NewFailureSet(), sc: snap.NewScratch()}
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	q.seq++
	e.id = fmt.Sprintf("snap-%d", q.seq)
	q.entries = append(q.entries, e)
	if activate {
		q.switchTo(e)
	}
	return e, nil
}

// switchTo makes e the serving snapshot and drops the one it supersedes
// from the registry. The caller holds q.mu.
func (q *queryPlane) switchTo(e *snapEntry) {
	if old := q.active.Swap(e); old != nil && old != e {
		q.entries = slices.DeleteFunc(q.entries, func(x *snapEntry) bool { return x == old })
	}
}

// activateID switches by snapshot id.
func (q *queryPlane) activateID(id string) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	i := slices.IndexFunc(q.entries, func(x *snapEntry) bool { return x.id == id })
	if i < 0 {
		return fmt.Errorf("unknown snapshot %q", id)
	}
	q.switchTo(q.entries[i])
	return nil
}

// SnapshotInfo is one registry entry in GET /v1/snapshots.
type SnapshotInfo struct {
	ID        string `json:"id"`
	Active    bool   `json:"active"`
	Published string `json:"published"`
	K         int    `json:"k"`
	Classes   int    `json:"classes"`
	Prefixes  int    `json:"prefixes"`
	Programs  int    `json:"programs"`
	Instrs    int    `json:"instrs"`
	Links     int    `json:"links"`
	CompileMS int64  `json:"compile_ms"`
}

func (q *queryPlane) list() []SnapshotInfo {
	active := q.active.Load()
	q.mu.Lock()
	defer q.mu.Unlock()
	var out []SnapshotInfo
	for _, e := range q.entries {
		st := e.snap.Stats
		out = append(out, SnapshotInfo{
			ID:        e.id,
			Active:    e == active,
			Published: e.published.UTC().Format(time.RFC3339),
			K:         e.snap.K,
			Classes:   st.Classes,
			Prefixes:  st.Prefixes,
			Programs:  st.Programs,
			Instrs:    st.Instrs,
			Links:     st.Links,
			CompileMS: st.CompileTime.Milliseconds(),
		})
	}
	return out
}

// PublishStore compiles a result store and atomically makes it the
// serving snapshot — the programmatic face of POST /v1/snapshots, used
// by hoyand's -store flag at boot and by /v1/resweep after commit.
func (s *Service) PublishStore(st *hoyan.ResultStore) (string, error) {
	e, err := s.query.publish(st, true)
	if err != nil {
		return "", err
	}
	return e.id, nil
}

// SnapshotPublishRequest is the JSON body of POST /v1/snapshots. With a
// path, the store is loaded from disk; without one, the service's held
// baseline (captured by the last resweep) is published. Activate
// defaults to true; set it false to stage a snapshot for a later
// /v1/snapshots/activate.
type SnapshotPublishRequest struct {
	Path     string `json:"path,omitempty"`
	Activate *bool  `json:"activate,omitempty"`
}

func (s *Service) handleSnapshotPublish(w http.ResponseWriter, r *http.Request) {
	var req SnapshotPublishRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil && !errors.Is(err, io.EOF) {
		badRequest(w, "bad body: %v", err)
		return
	}
	var st *hoyan.ResultStore
	if req.Path != "" {
		loaded, err := hoyan.LoadResultStore(req.Path)
		// Quarantined classes just drop out of a usable store's snapshot.
		var ce *hoyan.CorruptStoreError
		if err != nil && !(errors.As(err, &ce) && ce.Usable) {
			badRequest(w, "load store: %v", err)
			return
		}
		st = loaded
	} else {
		s.mu.Lock()
		st = s.baseline
		s.mu.Unlock()
		if st == nil {
			badRequest(w, "no held baseline; run /v1/resweep first or pass a path")
			return
		}
	}
	activate := req.Activate == nil || *req.Activate
	e, err := s.query.publish(st, activate)
	if err != nil {
		badRequest(w, "compile store: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"id": e.id, "active": activate})
}

func (s *Service) handleSnapshotList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"snapshots": s.query.list()})
}

// SnapshotActivateRequest is the JSON body of POST /v1/snapshots/activate.
type SnapshotActivateRequest struct {
	ID string `json:"id"`
}

func (s *Service) handleSnapshotActivate(w http.ResponseWriter, r *http.Request) {
	var req SnapshotActivateRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		badRequest(w, "bad body: %v", err)
		return
	}
	if err := s.query.activateID(req.ID); err != nil {
		badRequest(w, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"active": req.ID})
}

// QueryResponse is the JSON body of GET /v1/query, with kind-dependent
// fields populated.
type QueryResponse struct {
	Kind     string `json:"kind"`
	Snapshot string `json:"snapshot"`
	Prefix   string `json:"prefix,omitempty"`
	Router   string `json:"router,omitempty"`
	// Failed echoes the parsed failure set in canonical link names.
	Failed    []string `json:"failed,omitempty"`
	Reachable *bool    `json:"reachable,omitempty"`
	// MinFailures is -1 when the intent survives the sweep's whole
	// failure budget (values beyond K are unknowable from pruned
	// conditions, matching /v1/route's convention).
	MinFailures *int   `json:"min_failures,omitempty"`
	Tolerant    bool   `json:"tolerant,omitempty"`
	Link        string `json:"link,omitempty"`
	// Classes/Prefixes answer impact queries: how many behavior classes
	// mention the link, and the affected prefixes (the classes' members,
	// fanned out via the partition).
	Classes  int      `json:"classes,omitempty"`
	Prefixes []string `json:"prefixes,omitempty"`
}

// handleQuery answers from the active compiled snapshot, never from
// simulation:
//
//	GET /v1/query?kind=reach&prefix=P&router=R[&failed=a~b,c~d]
//	GET /v1/query?kind=minfail&prefix=P[&router=R]
//	GET /v1/query?kind=impact&link=a~b
func (s *Service) handleQuery(w http.ResponseWriter, r *http.Request) {
	e := s.query.active.Load()
	if e == nil {
		writeJSON(w, http.StatusServiceUnavailable,
			errorBody{Error: "no snapshot published; run /v1/resweep or POST /v1/snapshots"})
		return
	}
	st := e.getState()
	defer e.pool.Put(st)
	snap := e.snap

	qv := r.URL.Query()
	resp := QueryResponse{Kind: qv.Get("kind"), Snapshot: e.id}
	switch resp.Kind {
	case "reach":
		cls, root, ok := resolveTarget(w, snap, qv.Get("prefix"), qv.Get("router"), true)
		if !ok {
			return
		}
		resp.Prefix, resp.Router = qv.Get("prefix"), qv.Get("router")
		if !parseFailed(w, snap, qv.Get("failed"), st.fs, &resp.Failed) {
			return
		}
		v := cls.Progs[root].Eval(st.fs, st.sc)
		resp.Reachable = &v
	case "minfail":
		router := qv.Get("router")
		cls, root, ok := resolveTarget(w, snap, qv.Get("prefix"), router, router != "")
		if !ok {
			return
		}
		resp.Prefix, resp.Router = qv.Get("prefix"), router
		// The sweep's verdict, clipped to K at simulation time: -1 survives
		// the budget.
		min := cls.ClassMinFail
		if router != "" {
			min = cls.MinFail[root]
			if !cls.ReachUp[root] {
				min = 0
			}
		}
		resp.MinFailures, resp.Tolerant = &min, min < 0
	case "impact":
		name := qv.Get("link")
		v, ok := snap.ResolveLink(name)
		if !ok {
			badRequest(w, "unknown link %q (want an a~b pair from the baseline topology)", name)
			return
		}
		resp.Link = snap.LinkName(v)
		var prefixes []string
		for _, cls := range snap.Impacted(v) {
			resp.Classes++
			prefixes = append(prefixes, cls.Members...)
		}
		sort.Strings(prefixes)
		resp.Prefixes = prefixes
	default:
		badRequest(w, "unknown kind %q (want reach, minfail, or impact)", resp.Kind)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// resolveTarget maps prefix/router query params onto a compiled class
// and root index, writing the 400 itself on failure. needRouter
// distinguishes per-router queries from class-aggregate ones.
func resolveTarget(w http.ResponseWriter, snap *qc.Snapshot, prefix, router string, needRouter bool) (*qc.Class, int, bool) {
	cls, ok := snap.ClassOf(prefix)
	if !ok {
		badRequest(w, "prefix %q is not in the active snapshot", prefix)
		return nil, 0, false
	}
	if !needRouter {
		return cls, -1, true
	}
	root, ok := cls.Router(router)
	if !ok {
		badRequest(w, "router %q is not a BGP speaker in the active snapshot", router)
		return nil, 0, false
	}
	return cls, root, true
}

// parseFailed fills fs from a comma-separated link list, enforcing the
// snapshot's exactness contract: stored conditions were pruned past the
// sweep budget K, so failure sets larger than K are refused rather than
// answered approximately.
func parseFailed(w http.ResponseWriter, snap *qc.Snapshot, raw string, fs *qc.FailureSet, echo *[]string) bool {
	if raw == "" {
		return true
	}
	for _, name := range strings.Split(raw, ",") {
		v, ok := snap.ResolveLink(strings.TrimSpace(name))
		if !ok {
			badRequest(w, "unknown link %q in failed set", name)
			return false
		}
		if fs.Has(v) {
			continue // same link named twice (either endpoint order)
		}
		fs.Add(v)
		*echo = append(*echo, snap.LinkName(v))
	}
	if fs.Len() > snap.K {
		badRequest(w, "%d failed links exceeds the sweep budget K=%d; answers past the budget were pruned at sweep time — rerun the sweep with a larger K", fs.Len(), snap.K)
		return false
	}
	sort.Strings(*echo)
	return true
}
