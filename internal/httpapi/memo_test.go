package httpapi

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"net/url"
	"sort"
	"strings"
	"testing"

	"hoyan"
	"hoyan/internal/config"
	"hoyan/internal/gen"
	"hoyan/internal/igp"
)

// TestResweepCarriesIGPMemo drives a seeded edit series through
// POST /v1/resweep and counts IGP propagations around every request: New
// runs none, the boot resweep as many as a cold sweep (so its commit,
// which builds the served Verifier, runs none), a policy or static edit
// none (the service's held baseline carries the memo), an IS-IS edit all
// again — and no /v1/route ever runs one, because each commit derives the
// served verifier from the memo the sweep just ran on. After every step
// the service answers what a cold sweep of the same configuration says.
func TestResweepCarriesIGPMemo(t *testing.T) {
	w, err := gen.Generate(gen.Small())
	if err != nil {
		t.Fatal(err)
	}
	const k = 2
	count := func(f func()) int {
		before := igp.Propagations()
		f()
		return int(igp.Propagations() - before)
	}
	var svc *Service
	if n := count(func() { svc, err = New(w.Net, w.Snap, k) }); err != nil || n != 0 {
		t.Fatalf("New ran %d IGP propagations (%v), want 0", n, err)
	}
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	prefix, router := w.Prefixes()[0].String(), w.MANs[0]
	route := func(step string) {
		t.Helper()
		var rr RouteResponse
		n := count(func() {
			if code := get(t, srv, "/v1/route?prefix="+url.QueryEscape(prefix)+"&router="+router, &rr); code != 200 {
				t.Fatalf("%s: /v1/route status %d", step, code)
			}
		})
		if n != 0 {
			t.Fatalf("%s: /v1/route ran %d IGP propagations the resweep had just run", step, n)
		}
	}
	// served digests what the service answers; cold what a from-scratch
	// sweep of snap reports.
	served := func(resp *ResweepResponse) string {
		t.Helper()
		var lines []string
		for _, p := range w.Prefixes() {
			var qr QueryResponse
			if code := get(t, srv, "/v1/query?kind=minfail&prefix="+url.QueryEscape(p.String()), &qr); code != 200 || qr.MinFailures == nil {
				t.Fatalf("minfail %s: status %d", p, code)
			}
			lines = append(lines, fmt.Sprintf("P %s %d", p, *qr.MinFailures))
		}
		for _, v := range resp.Violations {
			lines = append(lines, fmt.Sprintf("V %s %s", v.Prefix, v.Router))
		}
		sort.Strings(lines)
		return strings.Join(lines, "\n")
	}
	cold := func(snap config.Snapshot) string {
		t.Helper()
		rep, err := hoyan.NetworkFrom(w.Net, snap).Sweep(hoyan.Options{K: k}, 2)
		if err != nil {
			t.Fatal(err)
		}
		var lines []string
		for _, p := range rep.Prefixes {
			lines = append(lines, fmt.Sprintf("P %s %d", p.Prefix, p.MinFailures))
		}
		for _, v := range rep.Violations {
			lines = append(lines, fmt.Sprintf("V %s %s", v.Prefix, v.Router))
		}
		sort.Strings(lines)
		return strings.Join(lines, "\n")
	}

	var boot ResweepResponse
	all := count(func() {
		if code := post(t, srv, "/v1/resweep", "", &boot); code != 200 {
			t.Fatalf("boot resweep status %d", code)
		}
	})
	sweep := count(func() {
		if _, err := hoyan.NetworkFrom(w.Net, w.Snap).Sweep(hoyan.Options{K: k}, 2); err != nil {
			t.Fatal(err)
		}
	})
	if all == 0 || all != sweep {
		t.Fatalf("the boot resweep ran %d IGP propagations, a cold sweep %d: the commit ran %d", all, sweep, all-sweep)
	}
	route("boot")

	snap := w.Snap
	type edit struct {
		desc, device string
		lines        []string
		rebuilt      bool
	}
	var edits []edit
	for _, p := range gen.Perturb(w, 7, 6) {
		if p.Kind != "link" { // the service's topology is fixed
			edits = append(edits, edit{desc: p.Description, device: p.Device, lines: p.Lines})
		}
	}
	pe := w.PEs[0]
	peNode, _ := w.Net.NodeByName(pe)
	peer := w.Net.Node(w.Net.Neighbors(peNode.ID)[0].Peer).Name
	edits = append(edits, edit{desc: "isis: metric override on " + pe, device: pe,
		lines: []string{"router isis", " metric " + peer + " 77"}, rebuilt: true})
	for _, e := range edits {
		body, err := json.Marshal(ResweepRequest{Updates: []ResweepUpdate{{Device: e.device, Lines: e.lines}}, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		var resp ResweepResponse
		n := count(func() {
			if code := post(t, srv, "/v1/resweep", string(body), &resp); code != 200 {
				t.Fatalf("%s: resweep status %d", e.desc, code)
			}
		})
		if !resp.Incremental || resp.SnapshotError != "" {
			t.Fatalf("%s: incremental=%v snapshot error %q", e.desc, resp.Incremental, resp.SnapshotError)
		}
		if want := map[bool]int{false: 0, true: all}[e.rebuilt]; n != want {
			t.Fatalf("%s: the resweep ran %d IGP propagations, want %d", e.desc, n, want)
		}
		if snap, err = snap.Apply([]config.Update{{Device: e.device, Lines: e.lines}}); err != nil {
			t.Fatal(err)
		}
		if got, want := served(&resp), cold(snap); got != want {
			t.Fatalf("%s: the service answers\n%s\na cold sweep says\n%s", e.desc, got, want)
		}
		route(e.desc)
	}
}
