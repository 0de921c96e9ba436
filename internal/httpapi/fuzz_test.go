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
