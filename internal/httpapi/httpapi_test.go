package httpapi

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"hoyan/internal/behavior"
	"hoyan/internal/config"
	"hoyan/internal/gen"
	"hoyan/internal/topo"
)

func service(t *testing.T) *Service {
	t.Helper()
	net := topo.NewNetwork()
	a := net.MustAddNode(topo.Node{Name: "A", AS: 100, Vendor: behavior.VendorAlpha})
	b := net.MustAddNode(topo.Node{Name: "B", AS: 200, Vendor: behavior.VendorAlpha})
	c := net.MustAddNode(topo.Node{Name: "C", AS: 300, Vendor: behavior.VendorAlpha})
	d := net.MustAddNode(topo.Node{Name: "D", AS: 400, Vendor: behavior.VendorAlpha})
	net.MustAddLink(a, c, 10)
	net.MustAddLink(a, b, 10)
	net.MustAddLink(b, c, 10)
	net.MustAddLink(c, d, 10)
	snap := config.Snapshot{}
	for name, text := range map[string]string{
		"A": "hostname A\nrouter bgp 100\n network 10.0.0.0/8\n neighbor B remote-as 200\n neighbor C remote-as 300\n",
		"B": "hostname B\nrouter bgp 200\n neighbor A remote-as 100\n neighbor C remote-as 300\n",
		"C": "hostname C\nrouter bgp 300\n neighbor A remote-as 100\n neighbor B remote-as 200\n neighbor D remote-as 400\n",
		"D": "hostname D\nrouter bgp 400\n neighbor C remote-as 300\n",
	} {
		dd, err := config.Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		snap[name] = dd
	}
	s, err := New(net, snap, 3)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func get(t *testing.T, srv *httptest.Server, path string, into any) int {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if into != nil {
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatalf("decode %s: %v", path, err)
		}
	}
	return resp.StatusCode
}

func TestRouteEndpoint(t *testing.T) {
	srv := httptest.NewServer(service(t).Handler())
	defer srv.Close()
	var out RouteResponse
	if code := get(t, srv, "/v1/route?prefix=10.0.0.0/8&router=D", &out); code != 200 {
		t.Fatalf("status %d", code)
	}
	if !out.Reachable || out.MinFailures != 1 || len(out.Witness) != 1 || out.Witness[0] != "C~D" {
		t.Fatalf("response %+v", out)
	}
	// Cached second query.
	if code := get(t, srv, "/v1/route?prefix=10.0.0.0/8&router=C", &out); code != 200 || out.MinFailures != 2 {
		t.Fatalf("C response %+v (%d)", out, code)
	}
}

func TestPacketEndpoint(t *testing.T) {
	srv := httptest.NewServer(service(t).Handler())
	defer srv.Close()
	var out PacketResponse
	if code := get(t, srv, "/v1/packet?prefix=10.0.0.0/8&src=D", &out); code != 200 {
		t.Fatalf("status %d", code)
	}
	if !out.Reachable || out.MinFailures != 1 {
		t.Fatalf("response %+v", out)
	}
}

// TestPacketEndpointAnyGateway: the handler asks hoyan.Verifier, so a
// prefix whose first announcer is out of reach of src but whose second
// is not reads reachable here as it does from the library and the CLI.
func TestPacketEndpointAnyGateway(t *testing.T) {
	net, snap, err := gen.LoadDir("../../examples/networks/two-gateways")
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(net, snap, 2)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	var out PacketResponse
	if code := get(t, srv, "/v1/packet?prefix=10.0.0.0/8&src=src", &out); code != 200 {
		t.Fatalf("status %d", code)
	}
	if !out.Reachable || out.MinFailures != 1 {
		t.Fatalf("src reaches gw-b over one link: %+v", out)
	}
}

func TestEquivalenceAndRacingEndpoints(t *testing.T) {
	srv := httptest.NewServer(service(t).Handler())
	defer srv.Close()
	var eq EquivalenceResponse
	if code := get(t, srv, "/v1/equivalence?a=B&b=D", &eq); code != 200 {
		t.Fatalf("status %d", code)
	}
	// B and D see different AS paths — not equivalent.
	if eq.Equivalent {
		t.Fatalf("B and D must differ: %+v", eq)
	}
	var rc RacingResponse
	if code := get(t, srv, "/v1/racing?prefix=10.0.0.0/8", &rc); code != 200 {
		t.Fatalf("status %d", code)
	}
	if rc.Ambiguous || rc.Convergences != 1 {
		t.Fatalf("racing %+v", rc)
	}
}

func TestListingEndpoints(t *testing.T) {
	srv := httptest.NewServer(service(t).Handler())
	defer srv.Close()
	var routers struct {
		Routers []string `json:"routers"`
	}
	get(t, srv, "/v1/routers", &routers)
	if len(routers.Routers) != 4 {
		t.Fatalf("routers %v", routers)
	}
	var prefixes struct {
		Prefixes []string `json:"prefixes"`
	}
	get(t, srv, "/v1/prefixes", &prefixes)
	if len(prefixes.Prefixes) != 1 || prefixes.Prefixes[0] != "10.0.0.0/8" {
		t.Fatalf("prefixes %v", prefixes)
	}
	var classes struct {
		Classes []ClassResponse `json:"classes"`
	}
	if code := get(t, srv, "/v1/classes", &classes); code != 200 {
		t.Fatalf("classes status %d", code)
	}
	if len(classes.Classes) != 1 {
		t.Fatalf("classes %v", classes)
	}
	c := classes.Classes[0]
	if c.Representative != "10.0.0.0/8" || len(c.Members) != 1 || c.Members[0] != "10.0.0.0/8" {
		t.Fatalf("class %+v", c)
	}
}

func TestBadRequests(t *testing.T) {
	srv := httptest.NewServer(service(t).Handler())
	defer srv.Close()
	for _, path := range []string{
		"/v1/route?prefix=zzz&router=D",
		"/v1/route?prefix=10.0.0.0/8&router=nope",
		"/v1/packet?prefix=zzz&src=D",
		"/v1/packet?prefix=10.0.0.0/8&src=nope",
		"/v1/packet?prefix=99.0.0.0/8&src=D", // nobody announces
		"/v1/equivalence?a=nope&b=D",
		"/v1/racing?prefix=zzz",
	} {
		var e errorBody
		if code := get(t, srv, path, &e); code != 400 {
			t.Errorf("%s: status %d, want 400", path, code)
		}
		if e.Error == "" {
			t.Errorf("%s: missing error body", path)
		}
	}
}

func post(t *testing.T, srv *httptest.Server, path, body string, into any) int {
	t.Helper()
	resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if into != nil {
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatalf("decode %s: %v", path, err)
		}
	}
	return resp.StatusCode
}

func TestResweepEndpoint(t *testing.T) {
	srv := httptest.NewServer(service(t).Handler())
	defer srv.Close()

	// First resweep: cold, seeds the baseline.
	var seed ResweepResponse
	if code := post(t, srv, "/v1/resweep", "", &seed); code != 200 {
		t.Fatalf("seed status %d", code)
	}
	if seed.Incremental || seed.Replayed != 0 || seed.Classes != 1 || seed.Prefixes != 1 {
		t.Fatalf("seed response %+v", seed)
	}

	// No-change resweep: everything replays.
	var again ResweepResponse
	if code := post(t, srv, "/v1/resweep", "{}", &again); code != 200 {
		t.Fatalf("resweep status %d", code)
	}
	if !again.Incremental || again.Replayed != again.Classes || len(again.Delta) != 0 {
		t.Fatalf("no-change resweep %+v", again)
	}
	if again.Invalidation == nil || again.Invalidation.ClassesDirty != 0 || again.Invalidation.DevicesCompared != 0 {
		t.Fatalf("no-change invalidation %+v", again.Invalidation)
	}

	// A config update: A originates a second prefix, which joins
	// 10.0.0.0/8's class and replays that prefix's record: the class is
	// rematched, nothing re-simulates. The delta is reported, the update
	// is committed (the new prefix is queryable), and /v1/classes carries
	// the invalidation counters.
	body := `{"updates": [{"device": "A", "lines": ["router bgp 100", " network 11.0.0.0/8"]}]}`
	var upd ResweepResponse
	if code := post(t, srv, "/v1/resweep", body, &upd); code != 200 {
		t.Fatalf("update status %d", code)
	}
	if !upd.Incremental || upd.Prefixes != 2 || len(upd.Delta) == 0 {
		t.Fatalf("update resweep %+v", upd)
	}
	if upd.Replayed != 1 || upd.Invalidation == nil || upd.Invalidation.ClassesDirty != 0 ||
		upd.Invalidation.ClassesRematched != 1 || upd.Invalidation.DevicesCompared != 1 {
		t.Fatalf("update replayed %d, invalidation %+v", upd.Replayed, upd.Invalidation)
	}
	var route RouteResponse
	if code := get(t, srv, "/v1/route?prefix=11.0.0.0/8&router=D", &route); code != 200 || !route.Reachable {
		t.Fatalf("post-commit route %+v (%d)", route, code)
	}
	var classes struct {
		Classes      []ClassResponse   `json:"classes"`
		Invalidation *InvalidationBody `json:"last_invalidation"`
	}
	if code := get(t, srv, "/v1/classes", &classes); code != 200 {
		t.Fatalf("classes status %d", code)
	}
	if classes.Invalidation == nil || !reflect.DeepEqual(classes.Invalidation, upd.Invalidation) {
		t.Fatalf("classes counters %+v, want %+v", classes.Invalidation, upd.Invalidation)
	}

	// Bad update bodies do not commit anything.
	if code := post(t, srv, "/v1/resweep", `{"updates": [{"device": "nope", "lines": ["hostname x"]}]}`, nil); code != 400 {
		t.Fatalf("bad device status %d", code)
	}
}

func TestConcurrentQueries(t *testing.T) {
	srv := httptest.NewServer(service(t).Handler())
	defer srv.Close()
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func() {
			resp, err := http.Get(srv.URL + "/v1/route?prefix=10.0.0.0/8&router=D")
			if err == nil {
				resp.Body.Close()
			}
			done <- err
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
