// Package httpapi exposes the verifier as an HTTP/JSON service — the
// frontend of Figure 2 that operators call to check updates and run
// audits. Handlers are stateless wrappers over a hoyan.Verifier, which
// is serialized with a mutex (it caches per-prefix results, so repeated
// queries are cheap).
package httpapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"

	"hoyan"
	"hoyan/internal/config"
	"hoyan/internal/core"
	"hoyan/internal/topo"
	"hoyan/internal/vet"
)

// Service serves verification queries for one network snapshot.
type Service struct {
	mu   sync.Mutex
	net  *topo.Network
	snap config.Snapshot
	// v answers the single-prefix questions (/v1/route, /v1/packet,
	// /v1/equivalence, /v1/racing) and holds the served model; every
	// resweep replaces it with one over the model it swept.
	v *hoyan.Verifier
	k int
	// baseline is the result store the last /v1/resweep captured; the
	// next resweep diffs against it and replays what the delta spares.
	baseline *hoyan.ResultStore
	// lastInval summarizes the last resweep's invalidation decisions for
	// the /v1/classes counters.
	lastInval *core.InvalidationStats
	// adm is the sweep-session registry: admission control, per-session
	// job bounds, and the SIGTERM drain latch (see admission.go).
	adm admission
	// query is the compiled-snapshot registry serving /v1/query and
	// /v1/snapshots without simulation or locks (see query.go).
	query *queryPlane
}

// New builds a service with failure budget k (0 = 3).
func New(net *topo.Network, snap config.Snapshot, k int) (*Service, error) {
	if k == 0 {
		k = 3
	}
	v, err := hoyan.NetworkFrom(net, snap).Verifier(hoyan.Options{K: k})
	if err != nil {
		return nil, err
	}
	return &Service{net: net, snap: snap, v: v, k: k, query: &queryPlane{}}, nil
}

// Handler returns the HTTP mux:
//
//	GET /v1/routers
//	GET /v1/prefixes
//	GET /v1/route?prefix=P&router=R      route reachability under failures
//	GET /v1/packet?prefix=P&src=R        packet reachability to the gateway
//	GET /v1/equivalence?a=R1&b=R2        role equivalence
//	GET /v1/racing?prefix=P              update-racing ambiguity
//	GET /v1/classes                      prefix behavior-class partition
//	POST /v1/resweep                     whole-network sweep, incremental
//	                                     against the previous resweep's
//	                                     baseline (optional config updates
//	                                     in the body); auto-publishes the
//	                                     committed store to the query plane
//	GET  /v1/vet                         static configuration analysis of
//	                                     the held model (defect findings
//	                                     and predicted modular refusals);
//	                                     ?only=a,b selects analyzers
//	GET  /v1/query                       compiled-snapshot answers (reach,
//	                                     minfail, impact) — never simulates
//	GET  /v1/snapshots                   compiled-snapshot registry
//	POST /v1/snapshots                   publish a store (disk path or the
//	                                     held baseline)
//	POST /v1/snapshots/activate          atomic switch by snapshot id
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/routers", s.handleRouters)
	mux.HandleFunc("GET /v1/prefixes", s.handlePrefixes)
	mux.HandleFunc("GET /v1/route", s.handleRoute)
	mux.HandleFunc("GET /v1/packet", s.handlePacket)
	mux.HandleFunc("GET /v1/equivalence", s.handleEquivalence)
	mux.HandleFunc("GET /v1/racing", s.handleRacing)
	mux.HandleFunc("GET /v1/classes", s.handleClasses)
	mux.HandleFunc("GET /v1/sessions", s.handleSessions)
	mux.HandleFunc("POST /v1/resweep", s.handleResweep)
	mux.HandleFunc("GET /v1/vet", s.handleVet)
	mux.HandleFunc("GET /v1/query", s.handleQuery)
	mux.HandleFunc("GET /v1/snapshots", s.handleSnapshotList)
	mux.HandleFunc("POST /v1/snapshots", s.handleSnapshotPublish)
	mux.HandleFunc("POST /v1/snapshots/activate", s.handleSnapshotActivate)
	return mux
}

// Classes returns the model's prefix behavior-class partition (what a
// classed sweep dispatches), for startup stats and the /v1/classes view.
func (s *Service) Classes() []core.PrefixClass { return s.v.Model().Classes() }

type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func badRequest(w http.ResponseWriter, format string, args ...any) {
	writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf(format, args...)})
}

func (s *Service) handleRouters(w http.ResponseWriter, r *http.Request) {
	var names []string
	for _, n := range s.net.Nodes() {
		names = append(names, n.Name)
	}
	writeJSON(w, http.StatusOK, map[string]any{"routers": names})
}

func (s *Service) handlePrefixes(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var ps []string
	for _, p := range s.v.Model().AnnouncedPrefixes() {
		ps = append(ps, p.String())
	}
	writeJSON(w, http.StatusOK, map[string]any{"prefixes": ps})
}

// RouteResponse is the JSON body of /v1/route.
type RouteResponse struct {
	Prefix      string   `json:"prefix"`
	Router      string   `json:"router"`
	Reachable   bool     `json:"reachable"`
	MinFailures int      `json:"min_failures"` // -1: survives the budget
	Tolerant    bool     `json:"tolerant"`
	Witness     []string `json:"witness,omitempty"`
	FormulaLen  int      `json:"formula_len"`
}

func (s *Service) handleRoute(w http.ResponseWriter, r *http.Request) {
	prefix, router := r.URL.Query().Get("prefix"), r.URL.Query().Get("router")
	s.mu.Lock()
	rep, err := s.v.RouteReach(prefix, router)
	s.mu.Unlock()
	if err != nil {
		badRequest(w, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, RouteResponse{
		Prefix: prefix, Router: router, Reachable: rep.Reachable, MinFailures: rep.MinFailures,
		Tolerant: rep.Tolerant, Witness: rep.Witness, FormulaLen: rep.FormulaLen,
	})
}

// PacketResponse is the JSON body of /v1/packet. Reaching any of the
// prefix's gateways counts.
type PacketResponse struct {
	Prefix      string `json:"prefix"`
	Src         string `json:"src"`
	Reachable   bool   `json:"reachable"`
	MinFailures int    `json:"min_failures"`
}

func (s *Service) handlePacket(w http.ResponseWriter, r *http.Request) {
	prefix, src := r.URL.Query().Get("prefix"), r.URL.Query().Get("src")
	s.mu.Lock()
	rep, err := s.v.PacketReach(prefix, src)
	s.mu.Unlock()
	if err != nil {
		badRequest(w, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, PacketResponse{
		Prefix: prefix, Src: src, Reachable: rep.Reachable, MinFailures: rep.MinFailures,
	})
}

// EquivalenceResponse is the JSON body of /v1/equivalence.
type EquivalenceResponse struct {
	A           string   `json:"a"`
	B           string   `json:"b"`
	Equivalent  bool     `json:"equivalent"`
	Differences []string `json:"differences,omitempty"`
}

func (s *Service) handleEquivalence(w http.ResponseWriter, r *http.Request) {
	a, b := r.URL.Query().Get("a"), r.URL.Query().Get("b")
	s.mu.Lock()
	rep, err := s.v.RoleEquivalence(a, b)
	s.mu.Unlock()
	if err != nil {
		badRequest(w, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, EquivalenceResponse{
		A: a, B: b, Equivalent: rep.Equivalent, Differences: rep.Differences,
	})
}

// ClassResponse is one behavior class in the JSON body of /v1/classes.
type ClassResponse struct {
	Representative string   `json:"representative"`
	Members        []string `json:"members"`
}

func (s *Service) handleClasses(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []ClassResponse
	for _, c := range s.v.Model().Classes() {
		cr := ClassResponse{Representative: c.Rep.String()}
		for _, p := range c.Members {
			cr.Members = append(cr.Members, p.String())
		}
		out = append(out, cr)
	}
	body := map[string]any{"classes": out}
	if s.lastInval != nil {
		body["last_invalidation"] = invalidationBody(s.lastInval)
	}
	writeJSON(w, http.StatusOK, body)
}

// ResweepUpdate is one device's incremental config change in a
// /v1/resweep request ("no "-prefixed lines remove commands).
type ResweepUpdate struct {
	Device string   `json:"device"`
	Lines  []string `json:"lines"`
}

// ResweepRequest is the JSON body of POST /v1/resweep. An empty body
// sweeps the current snapshot as-is.
type ResweepRequest struct {
	Updates []ResweepUpdate `json:"updates"`
	// NoIncremental ignores the held baseline and sweeps cold.
	NoIncremental bool `json:"no_incremental"`
	// AuditSample re-simulates this fraction of replayed classes and
	// replicated members, failing the sweep on divergence (0 = none).
	AuditSample float64 `json:"audit_sample"`
	// Workers is the sweep goroutine count (0 = GOMAXPROCS).
	Workers int `json:"workers"`
}

// InvalidationBody mirrors core.InvalidationStats in JSON form.
type InvalidationBody struct {
	ClassesDirty     int            `json:"classes_dirty"`
	ClassesReplayed  int            `json:"classes_replayed"`
	ClassesRematched int            `json:"classes_rematched"`
	ReplaysAudited   int            `json:"replays_audited"`
	DevicesCompared  int            `json:"devices_compared"`
	FullInvalidation bool           `json:"full_invalidation"`
	DeltaKinds       map[string]int `json:"delta_kinds,omitempty"`
	Notes            []string       `json:"notes,omitempty"`
}

func invalidationBody(st *core.InvalidationStats) *InvalidationBody {
	return &InvalidationBody{
		ClassesDirty:     st.ClassesDirty,
		ClassesReplayed:  st.ClassesReplayed,
		ClassesRematched: st.ClassesRematched,
		ReplaysAudited:   st.ReplaysAudited,
		DevicesCompared:  st.DevicesCompared,
		FullInvalidation: st.FullInvalidation,
		DeltaKinds:       st.DeltaKinds,
		Notes:            st.Notes,
	}
}

// ViolationBody is one reachability violation in a resweep response.
type ViolationBody struct {
	Kind    string `json:"kind"`
	Prefix  string `json:"prefix"`
	Router  string `json:"router"`
	Details string `json:"details"`
}

// ResweepResponse is the JSON body of POST /v1/resweep.
type ResweepResponse struct {
	// Session is the admitted sweep-session id (see GET /v1/sessions).
	Session string `json:"session"`
	// Incremental reports whether a baseline from a previous resweep was
	// diffed against (the first resweep is always a cold, seeding sweep).
	Incremental bool `json:"incremental"`
	Prefixes    int  `json:"prefixes"`
	Classes     int  `json:"classes"`
	// Replayed counts classes served from the baseline without
	// re-simulation.
	Replayed   int             `json:"classes_replayed"`
	DurationMS int64           `json:"duration_ms"`
	Violations []ViolationBody `json:"violations,omitempty"`
	// Delta lists the model changes the sweep acted on, one line each.
	Delta        []string          `json:"delta,omitempty"`
	Invalidation *InvalidationBody `json:"invalidation,omitempty"`
	// Snapshot is the query-plane snapshot id this sweep's store was
	// published under; SnapshotError carries the compile failure when
	// publication was impossible, which degrades /v1/query, not the sweep
	// itself.
	Snapshot      string `json:"snapshot,omitempty"`
	SnapshotError string `json:"snapshot_error,omitempty"`
}

// handleResweep applies the request's config updates (if any), sweeps
// the whole network incrementally against the baseline captured by the
// previous resweep, commits the updated snapshot, and holds the new
// baseline for the next call. Every resweep runs as an admitted session:
// saturation is a 429 + Retry-After, a draining service a 503, and the
// sweep itself runs without s.mu so admitted sessions truly overlap
// (queries stay served throughout; commit is last-writer-wins).
func (s *Service) handleResweep(w http.ResponseWriter, r *http.Request) {
	var req ResweepRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil && !errors.Is(err, io.EOF) {
		badRequest(w, "bad body: %v", err)
		return
	}

	// Capture the served state under a brief lock; the served model's
	// class count (the partition its sweep computed, once a resweep has
	// committed) is the session's queued-job size for admission.
	s.mu.Lock()
	snap := s.snap
	baseline := s.baseline
	jobs := len(s.v.Model().Classes())
	s.mu.Unlock()

	si, err := s.adm.admit(jobs)
	if err != nil {
		ae := err.(*errAdmission)
		if ae.retryAfter > 0 {
			w.Header().Set("Retry-After", strconv.Itoa(ae.retryAfter))
		}
		writeJSON(w, ae.status, errorBody{Error: ae.msg})
		return
	}
	defer s.adm.release(si.ID)

	if len(req.Updates) > 0 {
		ups := make([]config.Update, 0, len(req.Updates))
		for _, u := range req.Updates {
			ups = append(ups, config.Update{Device: u.Device, Lines: u.Lines})
		}
		next, err := snap.Apply(ups)
		if err != nil {
			badRequest(w, "apply updates: %v", err)
			return
		}
		snap = next
	}

	if req.NoIncremental {
		baseline = nil
	}
	// One network for the sweep and the commit's Verifier.
	n := hoyan.NetworkFrom(s.net, snap)
	opts := hoyan.Options{K: s.k, Baseline: baseline, AuditSample: req.AuditSample}
	rep, store, err := n.SweepBaseline(opts, req.Workers)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
		return
	}

	// Commit: the swept snapshot becomes the served one (queries now see
	// the updated configs) and the fresh store the next baseline. The
	// Verifier is built over the store even when no config changed: it
	// answers from the model the store keeps, the one the sweep assembled
	// (so a POST assembles at most one model, and /v1/classes reads the
	// partition the sweep computed), and from the IGP memo the sweep just
	// ran on instead of re-running the fixpoints on the first /v1/route.
	v, err := n.Verifier(hoyan.Options{K: s.k, Baseline: store})
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
		return
	}
	s.mu.Lock()
	s.snap, s.v = snap, v
	s.baseline = store
	s.lastInval = rep.Invalidation
	s.mu.Unlock()

	// Auto-publish the committed store so /v1/query serves the state this
	// sweep just verified. Best-effort: a store that cannot compile only
	// degrades the query plane (the previous snapshot keeps serving).
	var snapID, snapErr string
	if e, err := s.query.publish(store, true); err != nil {
		snapErr = err.Error()
	} else {
		snapID = e.id
	}

	resp := ResweepResponse{
		Session:     si.ID,
		Incremental: baseline != nil,
		Prefixes:    len(rep.Prefixes),
		Classes:     rep.Classes,
		Replayed:    rep.Replayed,
		DurationMS:  rep.Duration.Milliseconds(),
		Snapshot:    snapID,
	}
	resp.SnapshotError = snapErr
	for _, v := range rep.Violations {
		resp.Violations = append(resp.Violations, ViolationBody{
			Kind: v.Kind, Prefix: v.Prefix, Router: v.Router, Details: v.Details,
		})
	}
	if rep.Delta != nil {
		for _, it := range rep.Delta.Items {
			resp.Delta = append(resp.Delta, it.String())
		}
	}
	if rep.Invalidation != nil {
		resp.Invalidation = invalidationBody(rep.Invalidation)
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleVet runs the static analyzers against the model the service
// currently holds — after a committed resweep, that is the swept
// snapshot — so operators can ask "what would vet say about what you
// are serving" without shipping the config dir anywhere. Vet runs take
// milliseconds, so the brief model capture under s.mu is the only
// synchronization needed; the analysis itself runs unlocked.
func (s *Service) handleVet(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	m := s.v.Model()
	k := s.k
	s.mu.Unlock()
	analyzers, err := vet.Select(r.URL.Query().Get("only"))
	if err != nil {
		badRequest(w, "%v", err)
		return
	}
	diags, err := vet.RunBudget(m, analyzers, k)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, vet.NewReport(diags))
}

// RacingResponse is the JSON body of /v1/racing.
type RacingResponse struct {
	Prefix           string   `json:"prefix"`
	Ambiguous        bool     `json:"ambiguous"`
	Convergences     int      `json:"convergences"`
	AmbiguousRouters []string `json:"ambiguous_routers,omitempty"`
}

func (s *Service) handleRacing(w http.ResponseWriter, r *http.Request) {
	prefix := r.URL.Query().Get("prefix")
	s.mu.Lock()
	rep, err := s.v.CheckRacing(prefix)
	s.mu.Unlock()
	if err != nil {
		badRequest(w, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, RacingResponse{
		Prefix: prefix, Ambiguous: rep.Ambiguous, Convergences: rep.Convergences,
		AmbiguousRouters: rep.AmbiguousRouters,
	})
}
