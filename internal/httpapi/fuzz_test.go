package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hoyan"
	"hoyan/internal/gen"
)

// FuzzQuery drives GET /v1/query with arbitrary query strings against a
// published gen.Small snapshot at K=1. No input may panic the handler;
// every answer is 200 or 400; and a 200 reach answer must be what the
// compiled program of the echoed prefix and router says under the
// echoed failure set, which holds at most K links.
func FuzzQuery(f *testing.F) {
	w, err := gen.Generate(gen.Small())
	if err != nil {
		f.Fatal(err)
	}
	s, err := New(w.Net, w.Snap, 1)
	if err != nil {
		f.Fatal(err)
	}
	h := s.Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/resweep", strings.NewReader("")))
	if rec.Code != http.StatusOK {
		f.Fatalf("resweep status %d: %s", rec.Code, rec.Body)
	}
	snap := s.query.active.Load().snap

	prefix := s.Classes()[0].Rep.String()
	var routers []string
	for _, n := range w.Net.Nodes() {
		routers = append(routers, n.Name)
	}
	link := func(i int) string {
		l := w.Net.Links()[i%w.Net.NumLinks()]
		return w.Net.Node(l.B).Name + "~" + w.Net.Node(l.A).Name
	}
	answered := 0
	for i, r := range routers {
		q := url.Values{"kind": {"reach"}, "prefix": {prefix}, "router": {r}, "failed": {link(i)}}.Encode()
		f.Add(q)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/query?"+q, nil))
		if rec.Code == http.StatusOK {
			answered++
		}
	}
	if answered == 0 {
		f.Fatal("no seed reach query is answered: the verdict property would check nothing")
	}
	f.Add(url.Values{"kind": {"reach"}, "prefix": {prefix}, "router": {routers[0]}, "failed": {link(0) + "," + link(0)}}.Encode())
	f.Add(url.Values{"kind": {"reach"}, "prefix": {prefix}, "router": {routers[1]}, "failed": {link(1) + "," + link(2)}}.Encode())
	f.Add(url.Values{"kind": {"minfail"}, "prefix": {prefix}}.Encode())
	f.Add(url.Values{"kind": {"minfail"}, "prefix": {prefix}, "router": {routers[2]}}.Encode())
	f.Add(url.Values{"kind": {"impact"}, "link": {link(3)}}.Encode())
	f.Add("kind=reach&prefix=%zz&failed=~,,~")
	f.Add("")

	f.Fuzz(func(t *testing.T, raw string) {
		req := httptest.NewRequest(http.MethodGet, "/v1/query", nil)
		req.URL.RawQuery = raw
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusBadRequest:
			return
		case http.StatusOK:
		default:
			t.Fatalf("%q: status %d: %s", raw, rec.Code, rec.Body)
		}
		var got QueryResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
			t.Fatalf("%q: undecodable 200 body %q: %v", raw, rec.Body, err)
		}
		if got.Kind != "reach" {
			return
		}
		cls, ok := snap.ClassOf(got.Prefix)
		if !ok {
			t.Fatalf("%q: answered for prefix %q, which the snapshot does not hold", raw, got.Prefix)
		}
		root, ok := cls.Router(got.Router)
		if !ok {
			t.Fatalf("%q: answered for router %q, which is not a speaker of the class", raw, got.Router)
		}
		if len(got.Failed) > snap.K {
			t.Fatalf("%q: answered under %d failed links, past K=%d", raw, len(got.Failed), snap.K)
		}
		fs := snap.NewFailureSet()
		for _, name := range got.Failed {
			v, ok := snap.ResolveLink(name)
			if !ok {
				t.Fatalf("%q: echoed link %q does not resolve", raw, name)
			}
			fs.Add(v)
		}
		if got.Reachable == nil {
			t.Fatalf("%q: a 200 reach answer without a verdict", raw)
		}
		if want := cls.Progs[root].Eval(fs, snap.NewScratch()); *got.Reachable != want {
			t.Fatalf("%q: reachable %v, the compiled program under %v says %v", raw, *got.Reachable, got.Failed, want)
		}
	})
}

// FuzzRoute drives GET /v1/route and GET /v1/packet with arbitrary query
// strings against a gen.Small service at K=1. Both simulate on demand,
// through the IGP fixpoint and the BGP engine, rather than read a
// compiled snapshot. Each input goes to both paths. No input may panic a
// handler; every answer is 200 or 400; and a 200 answer's min_failures
// lies in [-1, K], 0 exactly when the route or packet does not arrive
// with every link up.
func FuzzRoute(f *testing.F) {
	const k = 1
	w, err := gen.Generate(gen.Small())
	if err != nil {
		f.Fatal(err)
	}
	s, err := New(w.Net, w.Snap, k)
	if err != nil {
		f.Fatal(err)
	}
	h := s.Handler()
	var prefixes []string
	for _, p := range s.v.Model().AnnouncedPrefixes() {
		prefixes = append(prefixes, p.String())
	}
	answered := map[string]int{}
	for i, n := range w.Net.Nodes() {
		q := url.Values{"prefix": {prefixes[i%len(prefixes)]}, "router": {n.Name}, "src": {n.Name}}.Encode()
		f.Add(q)
		for _, path := range []string{"/v1/route", "/v1/packet"} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path+"?"+q, nil))
			if rec.Code == http.StatusOK {
				answered[path]++
			}
		}
	}
	if answered["/v1/route"] == 0 || answered["/v1/packet"] == 0 {
		f.Fatalf("seed queries answered %v: a path with none would check nothing", answered)
	}
	f.Add(url.Values{"prefix": {"203.0.113.0/24"}, "router": {w.Net.Node(0).Name}}.Encode())
	f.Add(url.Values{"prefix": {prefixes[0]}, "router": {"nosuch"}, "src": {""}}.Encode())
	f.Add("prefix=10.0.0.0%2F33&router=%zz")
	f.Add("")

	f.Fuzz(func(t *testing.T, raw string) {
		for _, path := range []string{"/v1/route", "/v1/packet"} {
			req := httptest.NewRequest(http.MethodGet, path, nil)
			req.URL.RawQuery = raw
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			switch rec.Code {
			case http.StatusBadRequest:
				continue
			case http.StatusOK:
			default:
				t.Fatalf("%s?%q: status %d: %s", path, raw, rec.Code, rec.Body)
			}
			var got struct {
				Reachable   bool `json:"reachable"`
				MinFailures int  `json:"min_failures"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
				t.Fatalf("%s?%q: undecodable 200 body %q: %v", path, raw, rec.Body, err)
			}
			if got.MinFailures < -1 || got.MinFailures > k {
				t.Fatalf("%s?%q: min_failures %d outside [-1, %d]", path, raw, got.MinFailures, k)
			}
			if (got.MinFailures == 0) != !got.Reachable {
				t.Fatalf("%s?%q: reachable %v with min_failures %d", path, raw, got.Reachable, got.MinFailures)
			}
		}
	})
}

// FuzzResweep drives POST /v1/resweep with arbitrary bodies, each on a
// new gen.Small service at K=1 that one cold resweep has published. The
// seeds set audit_sample 1: every member of a swept class is re-simulated
// in a non-record pass of its own, on the executor that may have just run
// its representative, and every replayed class's representative in a
// record pass, and each is compared with the answer it audits. No body
// may panic the handler; every answer is 200, 400 or 500, and no 500 is
// an audit divergence; and /v1/query answers 200 afterwards.
func FuzzResweep(f *testing.F) {
	const k = 1
	w, err := gen.Generate(gen.Small())
	if err != nil {
		f.Fatal(err)
	}
	l := w.Net.Links()[0]
	impact := "/v1/query?" + url.Values{"kind": {"impact"}, "link": {w.Net.Node(l.A).Name + "~" + w.Net.Node(l.B).Name}}.Encode()
	dev := w.Net.Node(0).Name
	for _, body := range []string{
		`{"audit_sample": 1}`,
		`{"audit_sample": 1, "no_incremental": true}`,
		`{"audit_sample": 1, "workers": 1, "updates": [{"device": "` + dev + `", "lines": ["ip route 203.0.113.0/24 Null0"]}]}`,
		`{"audit_sample": 1, "updates": [{"device": "` + dev + `", "lines": ["no router bgp"]}]}`,
		`{"audit_sample": 0.5, "workers": -3}`,
		`{"audit_sample": -1e308, "updates": [{"device": "nosuch", "lines": []}]}`,
		`{"updates": null}`,
		`[]`,
		``,
	} {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body string) {
		s, err := New(w.Net, w.Snap, k)
		if err != nil {
			t.Fatal(err)
		}
		h := s.Handler()
		post := func(body string) *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/resweep", strings.NewReader(body)))
			return rec
		}
		if rec := post(""); rec.Code != http.StatusOK {
			t.Fatalf("cold resweep: status %d: %s", rec.Code, rec.Body)
		}
		switch rec := post(body); rec.Code {
		case http.StatusOK, http.StatusBadRequest:
		case http.StatusInternalServerError:
			if strings.Contains(rec.Body.String(), "audit") {
				t.Fatalf("%q: %s", body, rec.Body)
			}
		default:
			t.Fatalf("%q: status %d: %s", body, rec.Code, rec.Body)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, impact, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("%q: then GET %s: status %d: %s", body, impact, rec.Code, rec.Body)
		}
	})
}

// FuzzSnapshotPublish drives POST /v1/snapshots {path, activate} on a
// gen.Small service at K=1 whose active snapshot is its own sweep's. The
// fuzzed input is the bytes of the store at path, written to a new file
// per input, and which of the three activate forms the body takes
// (absent, true, false); the path itself is never fuzzed. The corpus is
// seeded with the real store. No input may panic the handler; every
// answer is 200 or 400; a 400 leaves the snapshot registry, the active
// snapshot's id with it, and every /v1/query answer as they were; a 200
// registers the snapshot it names, active exactly when asked.
func FuzzSnapshotPublish(f *testing.F) {
	const k = 1
	w, err := gen.Generate(gen.Small())
	if err != nil {
		f.Fatal(err)
	}
	s, err := New(w.Net, w.Snap, k)
	if err != nil {
		f.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/resweep", strings.NewReader("")))
	if rec.Code != http.StatusOK {
		f.Fatalf("resweep status %d: %s", rec.Code, rec.Body)
	}
	store := s.baseline
	path := filepath.Join(f.TempDir(), "store.json")
	if err := store.Save(path); err != nil {
		f.Fatal(err)
	}
	seed, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}

	prefix := s.Classes()[0].Rep.String()
	l := w.Net.Links()[0]
	link := w.Net.Node(l.A).Name + "~" + w.Net.Node(l.B).Name
	reads := []string{
		"/v1/snapshots",
		"/v1/query?" + url.Values{"kind": {"minfail"}, "prefix": {prefix}}.Encode(),
		"/v1/query?" + url.Values{"kind": {"impact"}, "link": {link}}.Encode(),
	}
	for _, n := range w.Net.Nodes() {
		reads = append(reads, "/v1/query?"+url.Values{"kind": {"reach"}, "prefix": {prefix}, "router": {n.Name}, "failed": {link}}.Encode())
	}

	for form := range uint8(3) {
		f.Add(seed, form)
	}
	f.Add(seed[:len(seed)/2], uint8(0))
	f.Add(bytes.Replace(seed, []byte(`"verdicts"`), []byte(`"verdictz"`), -1), uint8(1))
	f.Add([]byte(`{"k": -1, "classes": [{}]}`), uint8(2))
	f.Add([]byte(`{}`), uint8(0))
	f.Add([]byte(linklessStore), uint8(0))
	f.Add([]byte{}, uint8(1))

	f.Fuzz(func(t *testing.T, data []byte, form uint8) {
		s, err := New(w.Net, w.Snap, k)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.PublishStore(store); err != nil {
			t.Fatal(err)
		}
		h := s.Handler()
		get := func(target string) string {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
			return rec.Body.String()
		}
		before := make([]string, len(reads))
		for i, r := range reads {
			before[i] = get(r)
		}

		path := filepath.Join(t.TempDir(), "store.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		body := map[string]any{"path": path}
		activate := form%3 != 2
		if form%3 != 0 {
			body["activate"] = activate
		}
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/snapshots", bytes.NewReader(raw)))
		switch rec.Code {
		case http.StatusBadRequest:
			for i, r := range reads {
				if got := get(r); got != before[i] {
					t.Fatalf("%s: a 400 publish (%s) changed GET %s from %s to %s", raw, rec.Body, r, before[i], got)
				}
			}
			return
		case http.StatusOK:
		default:
			t.Fatalf("%s: status %d: %s", raw, rec.Code, rec.Body)
		}
		var pub struct {
			ID     string `json:"id"`
			Active bool   `json:"active"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &pub); err != nil || pub.ID == "" || pub.Active != activate {
			t.Fatalf("%s: 200 body %s (%v), want the new id, active %v", raw, rec.Body, err, activate)
		}
		var list struct {
			Snapshots []SnapshotInfo `json:"snapshots"`
		}
		if err := json.Unmarshal([]byte(get("/v1/snapshots")), &list); err != nil {
			t.Fatal(err)
		}
		found := false
		for _, e := range list.Snapshots {
			if e.ID == pub.ID {
				found = true
				if e.Active != activate {
					t.Fatalf("%s: snapshot %s active %v, asked %v", raw, pub.ID, e.Active, activate)
				}
			}
		}
		if !found {
			t.Fatalf("%s: 200 for snapshot %s, which the registry does not list: %+v", raw, pub.ID, list.Snapshots)
		}
	})
}

// FuzzPublishSequence drives up to 8 steps on one gen.Small service at
// K=1 that a cold resweep has published. A step is a resweep (an edit
// from a fixed menu, incremental or not), a staged publish of the held
// baseline, or the activation of the latest staged snapshot; each input
// byte picks one. Every publish compiles from the active snapshot and
// reuses the programs of the records it shares with it. After every
// step, each reach and minfail answer of a fixed deck must equal the
// answer a fresh qc.CompileStore of the active snapshot's store gives.
func FuzzPublishSequence(f *testing.F) {
	const k = 2
	w, err := gen.Generate(gen.Small())
	if err != nil {
		f.Fatal(err)
	}
	// The menu: two static routes, each with its rollback, and two policy
	// terms, which stay once added.
	var menu []ResweepUpdate
	for _, p := range gen.Perturb(w, 5, 6) {
		switch p.Kind {
		case "static":
			fields := strings.Fields(p.Lines[0]) // ip route P NH preference N
			menu = append(menu, ResweepUpdate{Device: p.Device, Lines: p.Lines},
				ResweepUpdate{Device: p.Device, Lines: []string{"no " + strings.Join(fields[:4], " ")}})
		case "policy":
			menu = append(menu, ResweepUpdate{Device: p.Device, Lines: p.Lines})
		}
	}
	deck := publishDeck(w)

	// A step byte b is a resweep of menu[b/6] (b/3 odd: no_incremental)
	// when b%3 is 0, a staged publish when 1, an activation when 2.
	f.Add([]byte{0, 6, 12, 18, 24, 30})
	f.Add([]byte{1, 6, 2, 12, 3, 1, 0, 2})
	f.Add([]byte{6, 1, 9, 2, 12, 0})
	f.Add([]byte{1, 1, 2, 2, 15, 24})

	f.Fuzz(func(t *testing.T, steps []byte) {
		if len(steps) > 8 {
			steps = steps[:8]
		}
		s, err := New(w.Net, w.Snap, k)
		if err != nil {
			t.Fatal(err)
		}
		h := s.Handler()
		stores := map[string]*hoyan.ResultStore{} // snapshot id → the store it compiled
		var staged []string
		resweep := func(req ResweepRequest) {
			body, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			rec := serveRec(h, http.MethodPost, "/v1/resweep", string(body))
			if rec.Code == http.StatusBadRequest && strings.Contains(rec.Body.String(), "apply updates") {
				return // a rollback of a route the served configs lack
			}
			var resp ResweepResponse
			if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &resp) != nil || resp.Snapshot == "" {
				t.Fatalf("%s: status %d: %s", body, rec.Code, rec.Body)
			}
			stores[resp.Snapshot] = s.baseline
		}
		resweep(ResweepRequest{})

		for i, b := range steps {
			switch b % 3 {
			case 0:
				resweep(ResweepRequest{Updates: []ResweepUpdate{menu[int(b/6)%len(menu)]}, NoIncremental: (b/3)%2 == 1})
			case 1:
				rec := serveRec(h, http.MethodPost, "/v1/snapshots", `{"activate": false}`)
				var pub struct {
					ID string `json:"id"`
				}
				if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &pub) != nil {
					t.Fatalf("step %d: staged publish: status %d: %s", i, rec.Code, rec.Body)
				}
				stores[pub.ID] = s.baseline
				staged = append(staged, pub.ID)
			case 2:
				if len(staged) == 0 {
					continue
				}
				id := staged[len(staged)-1]
				staged = staged[:len(staged)-1]
				if rec := serveRec(h, http.MethodPost, "/v1/snapshots/activate", `{"id": "`+id+`"}`); rec.Code != http.StatusOK {
					t.Fatalf("step %d: activate %s: status %d: %s", i, id, rec.Code, rec.Body)
				}
			}

			sameAsFreshCompile(t, fmt.Sprintf("step %d of %v", i, steps), s, stores[s.query.active.Load().id], deck)
		}
	})
}
