package httpapi

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"hoyan"
	"hoyan/internal/gen"
)

// publishDeck is a fixed query deck over a generated WAN: every prefix's
// class min-fail, and at every BGP speaker its min-fail, its all-up reach
// and its reach with two links of one router failed. The router differs
// from speaker to speaker, so across a prefix's speakers every router is
// cut off once — the prefix's origin among them, where the answers of
// different classes part.
func publishDeck(w *gen.WAN) []string {
	var deck []string
	nodes := w.Net.Nodes()
	for pi, p := range w.Prefixes() {
		deck = append(deck, "/v1/query?"+url.Values{"kind": {"minfail"}, "prefix": {p.String()}}.Encode())
		for ni, n := range nodes {
			if w.Snap[n.Name].BGP == nil {
				continue
			}
			x := nodes[(pi+ni)%len(nodes)]
			var failed []string
			for _, ad := range w.Net.Neighbors(x.ID)[:2] {
				failed = append(failed, x.Name+"~"+w.Net.Node(ad.Peer).Name)
			}
			for _, q := range []url.Values{
				{"kind": {"minfail"}, "prefix": {p.String()}, "router": {n.Name}},
				{"kind": {"reach"}, "prefix": {p.String()}, "router": {n.Name}},
				{"kind": {"reach"}, "prefix": {p.String()}, "router": {n.Name}, "failed": {strings.Join(failed, ",")}},
			} {
				deck = append(deck, "/v1/query?"+q.Encode())
			}
		}
	}
	return deck
}

func serveRec(h http.Handler, method, target, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, target, strings.NewReader(body)))
	return rec
}

// sameAsFreshCompile fails unless s answers every deck query from its
// active snapshot exactly as a fresh qc.CompileStore of st answers it,
// the snapshot id apart. st is the store the active snapshot was
// published from.
func sameAsFreshCompile(t *testing.T, label string, s *Service, st *hoyan.ResultStore, deck []string) {
	t.Helper()
	active := s.query.active.Load()
	// Publishing on a plane with no active snapshot has nothing to reuse:
	// it is a fresh compile.
	ref := &Service{query: &queryPlane{}}
	e, err := ref.query.publish(st, true)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if e.snap.Stats.Reused != 0 {
		t.Fatalf("%s: the reference compile reused %d programs", label, e.snap.Stats.Reused)
	}
	h, refH := s.Handler(), ref.Handler()
	for _, q := range deck {
		got, want := serveRec(h, http.MethodGet, q, ""), serveRec(refH, http.MethodGet, q, "")
		var g, w QueryResponse
		if got.Code != want.Code || json.Unmarshal(got.Body.Bytes(), &g) != nil || json.Unmarshal(want.Body.Bytes(), &w) != nil {
			t.Fatalf("%s: GET %s: %d %s, fresh compile %d %s", label, q, got.Code, got.Body, want.Code, want.Body)
		}
		if got.Code == http.StatusOK && g.Snapshot != active.id {
			t.Fatalf("%s: GET %s answered from %s, the active snapshot is %s", label, q, g.Snapshot, active.id)
		}
		g.Snapshot, w.Snapshot = "", ""
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: GET %s: %+v, fresh compile %+v", label, q, g, w)
		}
	}
}

// activeInfo returns the /v1/snapshots entry of the active snapshot.
func activeInfo(t *testing.T, s *Service) SnapshotInfo {
	t.Helper()
	for _, e := range s.query.list() {
		if e.Active {
			return e
		}
	}
	t.Fatal("no active snapshot listed")
	return SnapshotInfo{}
}

// TestStoreBootSeedsBaseline is hoyand's -store boot: a saved store,
// loaded back, published and handed over as the baseline. The first
// resweep after it is incremental, replays every class the edit leaves
// alone, and its publish reuses the programs of every replayed class.
func TestStoreBootSeedsBaseline(t *testing.T) {
	const k = 2
	w, err := gen.Generate(gen.Small())
	if err != nil {
		t.Fatal(err)
	}
	_, st, err := hoyan.NetworkFrom(w.Net, w.Snap).SweepBaseline(hoyan.Options{K: k}, 2)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "store.json")
	if err := st.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := hoyan.LoadResultStore(path)
	if err != nil {
		t.Fatal(err)
	}

	s, err := New(w.Net, w.Snap, k)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.PublishStore(loaded); err != nil {
		t.Fatal(err)
	}
	s.SetBaseline(loaded)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	var edit gen.Perturbation
	for _, p := range gen.Perturb(w, 3, 3) {
		if p.Kind == "static" {
			edit = p
		}
	}
	body, err := json.Marshal(ResweepRequest{Updates: []ResweepUpdate{{Device: edit.Device, Lines: edit.Lines}}})
	if err != nil {
		t.Fatal(err)
	}
	var resp ResweepResponse
	if code := post(t, srv, "/v1/resweep", string(body), &resp); code != 200 || resp.SnapshotError != "" {
		t.Fatalf("first resweep after boot: status %d, snapshot error %q", code, resp.SnapshotError)
	}
	inv := resp.Invalidation
	if !resp.Incremental || inv == nil || inv.FullInvalidation {
		t.Fatalf("first resweep after boot swept cold: incremental %v, invalidation %+v", resp.Incremental, inv)
	}
	if resp.Replayed == 0 || resp.Replayed != inv.ClassesReplayed || resp.Replayed+inv.ClassesDirty != resp.Classes {
		t.Fatalf("%s: %d of %d classes replayed, %d dirty", edit.Description, resp.Replayed, resp.Classes, inv.ClassesDirty)
	}
	info := activeInfo(t, s)
	if roots := len(loaded.Classes[0].Verdicts); info.ID != resp.Snapshot || info.Reused != resp.Replayed*roots {
		t.Fatalf("active snapshot %s reused %d programs; want %s reusing %d replayed classes × %d speakers",
			info.ID, info.Reused, resp.Snapshot, resp.Replayed, roots)
	}
	sameAsFreshCompile(t, edit.Description, s, s.baseline, publishDeck(w))
}

// TestOverlappingResweepsPublish runs two admitted resweeps at once,
// each with its own edit, so that each publish compiles against
// whichever snapshot is active while the other registers its own: run
// with -race. Both succeed, and a following resweep publishes a snapshot
// that reuses programs and answers as a fresh compile of its store does.
func TestOverlappingResweepsPublish(t *testing.T) {
	const k = 2
	w, err := gen.Generate(gen.Small())
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

	var bodies []string
	for _, p := range gen.Perturb(w, 9, 6) {
		if p.Kind == "static" {
			b, err := json.Marshal(ResweepRequest{Updates: []ResweepUpdate{{Device: p.Device, Lines: p.Lines}}})
			if err != nil {
				t.Fatal(err)
			}
			bodies = append(bodies, string(b))
		}
	}
	bodies = bodies[:2]
	start := make(chan struct{})
	var wg sync.WaitGroup
	resps := make([]ResweepResponse, len(bodies))
	codes := make([]int, len(bodies))
	for i, body := range bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			resp, err := http.Post(srv.URL+"/v1/resweep", "application/json", strings.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			codes[i] = resp.StatusCode
			if err := json.NewDecoder(resp.Body).Decode(&resps[i]); err != nil {
				t.Error(err)
			}
		}()
	}
	close(start)
	wg.Wait()
	for i, r := range resps {
		if codes[i] != 200 || !r.Incremental || r.Snapshot == "" || r.SnapshotError != "" {
			t.Fatalf("overlapping resweep %d: status %d, %+v", i, codes[i], r)
		}
	}

	id := resweep(t, srv)
	if info := activeInfo(t, s); info.ID != id || info.Reused == 0 {
		t.Fatalf("the resweep after the overlapping pair: active %+v, want %s with programs reused", info, id)
	}
	sameAsFreshCompile(t, "after overlapping resweeps", s, s.baseline, publishDeck(w))
}
