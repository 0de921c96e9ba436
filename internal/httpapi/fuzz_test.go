package httpapi

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

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
