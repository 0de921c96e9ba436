package httpapi

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"testing"

	"hoyan"
	"hoyan/internal/config"
	"hoyan/internal/core"
	"hoyan/internal/gen"
)

// TestResweepAssemblesOnce pins one model per POST /v1/resweep: the
// sweep assembles it, the commit's Verifier answers from it (it is the
// model the new store keeps) and /v1/classes reads the partition the
// sweep computed. A cold POST, a POST with updates and a no_incremental
// POST assemble one model each; a POST that changes nothing assembles
// none, because the held store's model is already the network's. After
// each, /v1/route and /v1/classes answer from the committed model,
// assembling nothing, as a Verifier of the same configuration does. The
// update's POST runs while /v1/route queries simulate on the served
// model that its sweep diffs against (run with -race).
func TestResweepAssemblesOnce(t *testing.T) {
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
	served := func() *core.Model {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.v.Model()
	}
	resweep := func(desc, body string, want int64) {
		t.Helper()
		before := core.AssembleCalls()
		var resp ResweepResponse
		if code := post(t, srv, "/v1/resweep", body, &resp); code != 200 || resp.SnapshotError != "" {
			t.Fatalf("%s: status %d, snapshot error %q", desc, code, resp.SnapshotError)
		}
		if got := core.AssembleCalls() - before; got != want {
			t.Fatalf("%s assembled %d models, want %d", desc, got, want)
		}
	}

	var upd gen.Perturbation
	for _, p := range gen.Perturb(w, 5, 6) {
		if p.Kind == "static" {
			upd = p
			break
		}
	}
	if upd.Kind == "" {
		t.Fatal("no static perturbation to apply")
	}
	applied, err := w.Snap.Apply([]config.Update{{Device: upd.Device, Lines: upd.Lines}})
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(ResweepRequest{Updates: []ResweepUpdate{{Device: upd.Device, Lines: upd.Lines}}, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	// answersAsCommitted checks /v1/route at every BGP speaker for one
	// prefix and /v1/classes against a Verifier and a model built afresh
	// from snap, counting assemblies around the service's answers only.
	prefix := w.Prefixes()[0].String()
	answersAsCommitted := func(desc string, snap config.Snapshot) {
		t.Helper()
		v, err := hoyan.NetworkFrom(w.Net, snap).Verifier(hoyan.Options{K: k})
		if err != nil {
			t.Fatal(err)
		}
		var classes []ClassResponse
		for _, c := range v.Model().Classes() {
			cr := ClassResponse{Representative: c.Rep.String()}
			for _, p := range c.Members {
				cr.Members = append(cr.Members, p.String())
			}
			classes = append(classes, cr)
		}
		before := core.AssembleCalls()
		for _, node := range w.Net.Nodes() {
			if snap[node.Name].BGP == nil {
				continue
			}
			want, err := v.RouteReach(prefix, node.Name)
			if err != nil {
				t.Fatal(err)
			}
			var got RouteResponse
			if code := get(t, srv, "/v1/route?prefix="+url.QueryEscape(prefix)+"&router="+node.Name, &got); code != 200 ||
				got.Reachable != want.Reachable || got.MinFailures != want.MinFailures || !reflect.DeepEqual(got.Witness, want.Witness) {
				t.Fatalf("%s: /v1/route at %s answers %+v (%d), a fresh Verifier %+v", desc, node.Name, got, code, want)
			}
		}
		var body struct {
			Classes []ClassResponse `json:"classes"`
		}
		if code := get(t, srv, "/v1/classes", &body); code != 200 || !reflect.DeepEqual(body.Classes, classes) {
			t.Fatalf("%s: /v1/classes answers %v (%d), a fresh model's partition is %v", desc, body.Classes, code, classes)
		}
		if got := core.AssembleCalls() - before; got != 0 {
			t.Fatalf("%s: /v1/route and /v1/classes assembled %d models", desc, got)
		}
	}

	resweep("the cold POST", "", 1)
	answersAsCommitted("after the cold POST", w.Snap)
	cold := served()
	resweep("a POST with no updates", "{}", 0)
	if served() != cold {
		t.Fatal("a POST with no updates commits a model other than the one it swept")
	}

	// Query the served model on every speaker for every prefix while the
	// update's sweep diffs against it.
	done, queried := make(chan struct{}), make(chan int)
	go func() {
		n := 0
		defer func() { queried <- n }()
		for {
			for _, p := range w.Prefixes() {
				for _, node := range w.Net.Nodes() {
					select {
					case <-done:
						return
					default:
					}
					resp, err := http.Get(srv.URL + "/v1/route?prefix=" + url.QueryEscape(p.String()) + "&router=" + node.Name)
					if err != nil {
						t.Error(err)
						return
					}
					resp.Body.Close()
					n++
				}
			}
		}
	}()
	resweep(fmt.Sprintf("a POST with an update (%s)", upd.Description), string(body), 1)
	close(done)
	t.Logf("%d /v1/route queries ran alongside the update's POST", <-queried)
	answersAsCommitted("after the update", applied)
	edited := served()
	if edited == cold {
		t.Fatal("the update's POST committed no new model")
	}
	resweep("a POST with no updates after the update", "{}", 0)
	if served() != edited {
		t.Fatal("a POST with no updates commits a model other than the one it swept")
	}
	resweep("a no_incremental POST", `{"no_incremental": true}`, 1)
	answersAsCommitted("after the no_incremental POST", applied)
	if served() == edited {
		t.Fatal("a no_incremental POST commits the held model instead of the one it assembled")
	}
}
