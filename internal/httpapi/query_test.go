package httpapi

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"hoyan"
	"hoyan/internal/behavior"
	"hoyan/internal/core"
	"hoyan/internal/gen"
	"hoyan/internal/logic"
)

// resweep seeds the query plane through the public API and returns the
// published snapshot id.
func resweep(t *testing.T, srv *httptest.Server) string {
	t.Helper()
	var resp ResweepResponse
	if code := post(t, srv, "/v1/resweep", "", &resp); code != 200 {
		t.Fatalf("resweep status %d", code)
	}
	if resp.SnapshotError != "" {
		t.Fatalf("resweep failed to publish its store: %s", resp.SnapshotError)
	}
	if resp.Snapshot == "" {
		t.Fatal("resweep published no snapshot")
	}
	return resp.Snapshot
}

func TestQueryPlaneUnavailableBeforePublish(t *testing.T) {
	srv := httptest.NewServer(service(t).Handler())
	defer srv.Close()
	var eb errorBody
	if code := get(t, srv, "/v1/query?kind=reach&prefix=10.0.0.0/8&router=D", &eb); code != 503 {
		t.Fatalf("query before any snapshot: status %d, want 503", code)
	}
}

func TestSnapshotRegistryLifecycle(t *testing.T) {
	srv := httptest.NewServer(service(t).Handler())
	defer srv.Close()

	first := resweep(t, srv)
	var list struct {
		Snapshots []SnapshotInfo `json:"snapshots"`
	}
	if code := get(t, srv, "/v1/snapshots", &list); code != 200 || len(list.Snapshots) != 1 {
		t.Fatalf("after first publish: %d snapshots (%d)", len(list.Snapshots), code)
	}
	if s0 := list.Snapshots[0]; s0.ID != first || !s0.Active || s0.Classes == 0 || s0.Links == 0 {
		t.Fatalf("first snapshot entry %+v", list.Snapshots[0])
	}

	// A second resweep publishes and activates a new snapshot; the old
	// one has no in-flight queries, so it must be GC'd from the registry.
	second := resweep(t, srv)
	if second == first {
		t.Fatal("second resweep reused the first snapshot id")
	}
	list.Snapshots = nil
	get(t, srv, "/v1/snapshots", &list)
	if len(list.Snapshots) != 1 || list.Snapshots[0].ID != second {
		t.Fatalf("old snapshot not GC'd: %+v", list.Snapshots)
	}

	// Staging (activate=false) registers without switching; explicit
	// activate flips atomically.
	var pub struct {
		ID     string `json:"id"`
		Active bool   `json:"active"`
	}
	if code := post(t, srv, "/v1/snapshots", `{"activate": false}`, &pub); code != 200 || pub.Active {
		t.Fatalf("stage publish: %+v (%d)", pub, code)
	}
	list.Snapshots = nil
	get(t, srv, "/v1/snapshots", &list)
	if len(list.Snapshots) != 2 {
		t.Fatalf("staged snapshot missing: %+v", list.Snapshots)
	}
	if code := post(t, srv, "/v1/snapshots/activate", fmt.Sprintf(`{"id":%q}`, pub.ID), nil); code != 200 {
		t.Fatalf("activate status %d", code)
	}
	var q QueryResponse
	if code := get(t, srv, "/v1/query?kind=impact&link=C~D", &q); code != 200 || q.Snapshot != pub.ID {
		t.Fatalf("query not served from activated snapshot: %+v (%d)", q, code)
	}
	if code := post(t, srv, "/v1/snapshots/activate", `{"id":"snap-999"}`, nil); code != 400 {
		t.Fatalf("activating an unknown id: status %d, want 400", code)
	}
}

// TestSnapshotPublishFromDisk: POST /v1/snapshots {path} serves a saved
// store; one written before records held verdicts (the key is absent
// there; a nil slice decodes the same) has every record quarantined at
// load, so there is nothing to serve and the 400 says to re-capture it.
func TestSnapshotPublishFromDisk(t *testing.T) {
	s := service(t)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	resweep(t, srv)

	path := filepath.Join(t.TempDir(), "store.json")
	store := *s.baseline
	if err := store.Save(path); err != nil {
		t.Fatal(err)
	}
	body := fmt.Sprintf(`{"path":%q}`, path)
	if code := post(t, srv, "/v1/snapshots", body, nil); code != 200 {
		t.Fatalf("publishing a fresh store from disk: status %d", code)
	}

	store.Classes = append([]hoyan.ClassRecord(nil), store.Classes...)
	for i := range store.Classes {
		store.Classes[i].Verdicts = nil
	}
	if err := store.Save(path); err != nil {
		t.Fatal(err)
	}
	var eb errorBody
	if code := post(t, srv, "/v1/snapshots", body, &eb); code != 400 {
		t.Fatalf("publishing a store without verdicts: status %d, want 400", code)
	}
	if !strings.Contains(eb.Error, "re-capture the baseline") {
		t.Fatalf("the 400 must say to re-capture: %q", eb.Error)
	}
}

// heldWriter parks a handler at its first write until released: a query
// in flight that has loaded its snapshot and not yet returned.
type heldWriter struct {
	*httptest.ResponseRecorder
	reached, release chan struct{}
	once             sync.Once
}

func (w *heldWriter) WriteHeader(code int) {
	w.once.Do(func() {
		close(w.reached)
		<-w.release
	})
	w.ResponseRecorder.WriteHeader(code)
}

// TestQueryInFlightAcrossSwitch: the registry lists what can be served or
// activated — the active snapshot and the staged ones — and a superseded
// snapshot leaves it at the switch, in-flight queries or not. A query
// that loaded the old snapshot still answers from it (the staleness
// contract); nothing counts it. Queries racing a run of switches each
// answer from one snapshot, whole: run with -race.
func TestQueryInFlightAcrossSwitch(t *testing.T) {
	s := service(t)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	first := resweep(t, srv)
	var staged struct {
		ID string `json:"id"`
	}
	if code := post(t, srv, "/v1/snapshots", `{"activate": false}`, &staged); code != 200 {
		t.Fatalf("stage publish: status %d", code)
	}

	const query = "/v1/query?kind=reach&prefix=10.0.0.0/8&router=D"
	hw := &heldWriter{ResponseRecorder: httptest.NewRecorder(), reached: make(chan struct{}), release: make(chan struct{})}
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Handler().ServeHTTP(hw, httptest.NewRequest("GET", query, nil))
	}()
	<-hw.reached
	second, err := s.PublishStore(s.baseline)
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Snapshots []SnapshotInfo `json:"snapshots"`
	}
	get(t, srv, "/v1/snapshots", &list)
	if len(list.Snapshots) != 2 || list.Snapshots[0].ID != staged.ID || list.Snapshots[0].Active ||
		list.Snapshots[1].ID != second || !list.Snapshots[1].Active {
		t.Fatalf("after the switch want staged %s and active %s listed, got %+v", staged.ID, second, list.Snapshots)
	}
	close(hw.release)
	<-done
	var held QueryResponse
	if err := json.Unmarshal(hw.Body.Bytes(), &held); err != nil {
		t.Fatal(err)
	}
	if hw.Code != 200 || held.Snapshot != first || held.Reachable == nil || !*held.Reachable {
		t.Fatalf("the query in flight across the switch: status %d, %+v; want an answer from %s", hw.Code, held, first)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rec := httptest.NewRecorder()
				s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", query, nil))
				var q QueryResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &q); err != nil || rec.Code != 200 ||
					q.Snapshot == "" || q.Reachable == nil || !*q.Reachable {
					t.Errorf("query during switches: status %d, %+v, %v", rec.Code, q, err)
					return
				}
			}
		}()
	}
	for i := 0; i < 20; i++ {
		if _, err := s.PublishStore(s.baseline); err != nil {
			t.Error(err)
		}
	}
	close(stop)
	wg.Wait()
	list.Snapshots = nil
	get(t, srv, "/v1/snapshots", &list)
	if len(list.Snapshots) != 2 || list.Snapshots[0].ID != staged.ID || !list.Snapshots[1].Active {
		t.Fatalf("after 20 more switches want the staged and the active snapshot listed, got %+v", list.Snapshots)
	}
}

func TestQueryEndpointValidation(t *testing.T) {
	srv := httptest.NewServer(service(t).Handler())
	defer srv.Close()
	resweep(t, srv)

	for _, tc := range []struct{ path, why string }{
		{"/v1/query?kind=teleport", "unknown kind"},
		{"/v1/query?kind=reach&prefix=10.9.9.9/32&router=D", "unknown prefix"},
		{"/v1/query?kind=reach&prefix=10.0.0.0/8&router=Z", "unknown router"},
		{"/v1/query?kind=reach&prefix=10.0.0.0/8&router=D&failed=X~Y", "unknown link"},
		{"/v1/query?kind=reach&prefix=10.0.0.0/8&router=D&failed=A~B,A~C,B~C,C~D", "failure set over budget"},
		{"/v1/query?kind=impact&link=nonsense", "unparsable link"},
	} {
		if code := get(t, srv, tc.path, nil); code != 400 {
			t.Errorf("%s: status %d, want 400", tc.why, code)
		}
	}

	// Budget boundary: exactly K failed links must be answered — and the
	// whole western triangle down disconnects the announcer A.
	var q QueryResponse
	if code := get(t, srv, "/v1/query?kind=reach&prefix=10.0.0.0/8&router=D&failed=A~B,A~C,B~C", &q); code != 200 {
		t.Fatalf("K-sized failure set refused: %d", code)
	}
	if q.Reachable == nil || *q.Reachable {
		t.Fatalf("A is disconnected with all three western links down: %+v", q)
	}
	// A 2-link failure that spares A~C keeps the detour alive.
	var qUp QueryResponse
	get(t, srv, "/v1/query?kind=reach&prefix=10.0.0.0/8&router=D&failed=A~B,B~C", &qUp)
	if qUp.Reachable == nil || !*qUp.Reachable {
		t.Fatalf("D must still reach 10/8 over A~C,C~D: %+v", qUp)
	}
	// Link names normalize to canonical order however the caller writes
	// them.
	var q2 QueryResponse
	get(t, srv, "/v1/query?kind=reach&prefix=10.0.0.0/8&router=D&failed=D~C", &q2)
	if len(q2.Failed) != 1 || q2.Failed[0] != "C~D" {
		t.Fatalf("failed echo not canonical: %+v", q2.Failed)
	}
	if q2.Reachable == nil || *q2.Reachable {
		t.Fatal("D survives losing its only link")
	}
}

// TestQueryMatchesSimulation is the equivalence pin: on gen.Medium, for
// K=1 and K=3, every /v1/query answer must agree with a fresh
// simulation of the same model — reach under sampled failure sets,
// min-failures per router and per class, and impact soundness (a link
// whose death semantically changes a fresh condition must appear in the
// affected set).
func TestQueryMatchesSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("gen.Medium sweep ×2 in -short mode")
	}
	for _, k := range []int{1, 3} {
		t.Run(fmt.Sprintf("K=%d", k), func(t *testing.T) {
			w, err := gen.Generate(gen.Medium())
			if err != nil {
				t.Fatal(err)
			}
			s, err := New(w.Net, w.Snap, k)
			if err != nil {
				t.Fatal(err)
			}
			srv := httptest.NewServer(s.Handler())
			defer srv.Close()
			resweep(t, srv)

			// The fresh simulation: same model assembly and options as the
			// service, but a simulator the query plane never touches.
			m, err := core.Assemble(w.Net, w.Snap, behavior.TrueProfiles())
			if err != nil {
				t.Fatal(err)
			}
			opts := core.DefaultOptions()
			opts.K = k
			sim := core.NewSimulator(m, opts)

			// BGP speakers, and the sampled routers queries run against.
			var speakers []string
			for _, n := range w.Net.Nodes() {
				if m.Configs[n.ID].BGP != nil {
					speakers = append(speakers, n.Name)
				}
			}
			routers := speakers
			if len(routers) > 6 {
				routers = routers[:6]
			}

			links := w.Net.Links()
			rng := rand.New(rand.NewSource(7))
			failureSets := [][]string{nil}
			for i := 0; i < 4; i++ {
				var fsNames []string
				for j := 0; j < 1+rng.Intn(k); j++ {
					l := links[rng.Intn(len(links))]
					fsNames = append(fsNames, w.Net.Node(l.A).Name+"~"+w.Net.Node(l.B).Name)
				}
				failureSets = append(failureSets, fsNames)
			}

			for _, cls := range m.Classes() {
				p := cls.Rep
				res, err := sim.Run(p)
				if err != nil {
					t.Fatal(err)
				}
				pt := core.AnyRouteTo(p)
				// Every member of the class must answer identically to the
				// representative — the fan-out the partition promises. Spot
				// check with the last member.
				targets := []string{p.String()}
				if n := len(cls.Members); n > 1 {
					targets = append(targets, cls.Members[n-1].String())
				}

				for _, router := range routers {
					node, _ := w.Net.NodeByName(router)
					cond := res.ReachCond(node.ID, pt)

					for _, fsNames := range failureSets {
						asn := logic.Assignment{}
						seen := map[string]bool{}
						for _, name := range fsNames {
							for _, l := range links {
								ln := w.Net.Node(l.A).Name + "~" + w.Net.Node(l.B).Name
								if ln == name && !seen[ln] {
									asn[logic.Var(l.ID)] = false
									seen[ln] = true
								}
							}
						}
						want := sim.F.Eval(cond, asn)

						q := url.Values{"kind": {"reach"}, "prefix": {targets[len(targets)-1]}, "router": {router}}
						if len(fsNames) > 0 {
							q.Set("failed", strings.Join(fsNames, ","))
						}
						var got QueryResponse
						if code := get(t, srv, "/v1/query?"+q.Encode(), &got); code != 200 {
							t.Fatalf("reach query %v: status %d", q, code)
						}
						if got.Reachable == nil || *got.Reachable != want {
							t.Fatalf("reach(%s@%s, failed=%v): query=%v sim=%v",
								p, router, fsNames, got.Reachable, want)
						}
					}

					// Min failures per router, /v1/route's convention.
					want := 0
					if sim.F.Eval(cond, nil) {
						want = sim.F.MinFailuresToViolate(cond)
						if want > k {
							want = -1
						}
					}
					for _, target := range targets {
						var got QueryResponse
						path := "/v1/query?kind=minfail&prefix=" + url.QueryEscape(target) + "&router=" + router
						if code := get(t, srv, path, &got); code != 200 {
							t.Fatalf("minfail query: status %d", code)
						}
						if got.MinFailures == nil || *got.MinFailures != want {
							t.Fatalf("minfail(%s@%s): query=%v sim=%d", target, router, got.MinFailures, want)
						}
					}
				}

				// Class-aggregate min failures: the weakest reachable speaker.
				wantAgg := logic.Unfailable
				for _, router := range speakers {
					node, _ := w.Net.NodeByName(router)
					cond := res.ReachCond(node.ID, pt)
					if !sim.F.Eval(cond, nil) {
						continue
					}
					if mf := sim.F.MinFailuresToViolate(cond); mf < wantAgg {
						wantAgg = mf
					}
				}
				if wantAgg > k {
					wantAgg = -1
				}
				var got QueryResponse
				if code := get(t, srv, "/v1/query?kind=minfail&prefix="+url.QueryEscape(p.String()), &got); code != 200 {
					t.Fatalf("aggregate minfail: status %d", code)
				}
				if got.MinFailures == nil || *got.MinFailures != wantAgg {
					t.Fatalf("minfail(%s): query=%v sim=%d", p, got.MinFailures, wantAgg)
				}
			}

			// Impact soundness: pick a handful of links; any prefix whose
			// fresh condition at some speaker semantically depends on the
			// link must be in the reported affected set.
			for i := 0; i < 5; i++ {
				l := links[rng.Intn(len(links))]
				name := w.Net.Node(l.A).Name + "~" + w.Net.Node(l.B).Name
				var got QueryResponse
				if code := get(t, srv, "/v1/query?kind=impact&link="+url.QueryEscape(name), &got); code != 200 {
					t.Fatalf("impact query %s: status %d", name, code)
				}
				affected := map[string]bool{}
				for _, p := range got.Prefixes {
					affected[p] = true
				}
				dead := map[logic.Var]logic.F{logic.Var(l.ID): logic.False}
				for _, cls := range m.Classes() {
					res, err := sim.Run(cls.Rep)
					if err != nil {
						t.Fatal(err)
					}
					pt := core.AnyRouteTo(cls.Rep)
					depends := false
					for _, router := range speakers {
						node, _ := w.Net.NodeByName(router)
						cond := res.ReachCond(node.ID, pt)
						if !sim.F.Equivalent(cond, sim.F.Substitute(cond, dead)) {
							depends = true
							break
						}
					}
					if depends {
						for _, member := range cls.Members {
							if !affected[member.String()] {
								t.Fatalf("impact(%s) misses %s though its condition depends on the link", name, member)
							}
						}
					}
				}
				// The affected list is sorted and within the universe.
				if !sort.StringsAreSorted(got.Prefixes) {
					t.Fatalf("impact(%s) prefixes not sorted", name)
				}
			}
		})
	}
}
