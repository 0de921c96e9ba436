package dist

import (
	"fmt"
	"reflect"
	"testing"

	"hoyan/internal/gen"
	"hoyan/internal/netaddr"
)

// The shapes of two pipeline benchmark workloads: compile-k3 (45 routers,
// 15 classes, each from a gateway of its own) and classes-k2 (30 routers,
// 64 one-prefix classes from 16 gateways).
var (
	compileK3 = gen.Params{Seed: 3, Regions: 5, CoresPerRegion: 2, PEsPerRegion: 3,
		MANsPerRegion: 1, PeersPerRegion: 3, PrefixesPerPeer: 3, ExtraCoreLinks: 5, WANAS: 64500}
	classesK2 = gen.Params{Seed: 1, Regions: 2, CoresPerRegion: 2, PEsPerRegion: 4,
		MANsPerRegion: 1, PeersPerRegion: 8, PrefixesPerPeer: 4, ExtraCoreLinks: 1, WANAS: 64500, PolicyDiversity: 4}
)

// workerOf generates the WAN of p and a worker whose default model it is.
func workerOf(t testing.TB, p gen.Params) (*Worker, *gen.WAN) {
	t.Helper()
	wa, err := gen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	return NewWorker(wa.Net, wa.Snap), wa
}

// sameAnswer fails unless got and want carry the same verdicts, refusal,
// error and record.
func sameAnswer(t testing.TB, what string, got, want Response) {
	t.Helper()
	switch {
	case got.Error != want.Error || got.Refused != want.Refused:
		t.Fatalf("%s: error %q, refusal %q on a reused connection; %q, %q on a fresh one", what, got.Error, got.Refused, want.Error, want.Refused)
	case !reflect.DeepEqual(got.Summaries, want.Summaries):
		t.Fatalf("%s: verdicts %+v on a reused connection, %+v on a fresh one", what, got.Summaries, want.Summaries)
	case !reflect.DeepEqual(got.Record, want.Record):
		t.Fatalf("%s: the record differs from a fresh connection's", what)
	}
}

// reuseKey is what the reuse rule compares between passes: the prefix's
// family origins and the pass's region ("" monolithic).
func reuseKey(t testing.TB, w *Worker, req Request) string {
	t.Helper()
	sh, _, _, err := w.sharedFor(req.Model, req.K, req.Region)
	if err != nil {
		t.Fatal(err)
	}
	p, err := netaddr.Parse(req.Prefix)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprint(sh.M.FamilyOrigins(p), req.Region)
}

// TestConnectionReuseRule pins when a connection's simulator keeps its
// factory: one connSim answers every class of gen.Medium K=2 monolithic
// (the representative, then the second member, a record pass on every
// other class), then every class's modular region passes, then every
// class of the classes-k2 shape (every fourth a record pass; under the
// race detector, the first four classes of each). After each pass:
//
//   - (a) the factory was recycled exactly when the pass is a record pass
//     or its (origins, region) key differs from the pass before it, and
//     a new simulator came only with a new Shared;
//   - (b) the answer is the one a fresh connSim gives;
//   - (c) the factory holds exactly the formula and BDD nodes of a new
//     simulator that ran only the passes since the last recycle: a
//     connection's arena is bounded by one run of same-key passes.
func TestConnectionReuseRule(t *testing.T) {
	med, wa := workerOf(t, gen.Medium())
	k2, _ := workerOf(t, classesK2)
	const k = 2
	plan := modularPlan(t, wa, k)
	m, err := k2.sources[""].assemble()
	if err != nil {
		t.Fatal(err)
	}
	k2Classes := m.Classes()
	if raceEnabled {
		plan.Classes, k2Classes = plan.Classes[:4], k2Classes[:4]
	}

	type step struct {
		w   *Worker
		req Request
	}
	cs := &connSim{}
	var since []step
	var lastKey string
	passes, kept, recycled := 0, 0, 0
	answer := func(w *Worker, req Request) Response {
		t.Helper()
		what := fmt.Sprintf("pass %d (%s region %q record %v)", passes, req.Prefix, req.Region, req.Record)
		passes++
		key := reuseKey(t, w, req)
		sim, sh := cs.sim, cs.sh
		var before uint64
		if sim != nil {
			before = sim.F.Recycles()
		}
		got := w.answer(req, cs)
		sameAnswer(t, what, got, w.answer(req, &connSim{}))
		switch {
		case cs.sim != sim:
			if cs.sh == sh {
				t.Fatalf("%s: a new simulator on the same Shared", what)
			}
			since = nil
		case cs.sim.F.Recycles() != before:
			if !req.Record && key == lastKey {
				t.Fatalf("%s: recycled between two non-record passes of key %s", what, key)
			}
			since = nil
			recycled++
		default:
			if req.Record || key != lastKey {
				t.Fatalf("%s: kept the factory from key %s to key %s", what, lastKey, key)
			}
			kept++
		}
		lastKey = key
		since = append(since, step{w, req})
		fresh := &connSim{}
		for _, s := range since {
			s.w.answer(s.req, fresh)
		}
		if got, want := cs.sim.F.NumNodes(), fresh.sim.F.NumNodes(); got != want {
			t.Fatalf("%s: %d formula nodes, %d on a new simulator of the %d passes since the last recycle", what, got, want, len(since))
		}
		if got, want := cs.sim.F.SolverNodes(), fresh.sim.F.SolverNodes(); got != want {
			t.Fatalf("%s: %d BDD nodes, %d on a new simulator of the %d passes since the last recycle", what, got, want, len(since))
		}
		return got
	}

	for i, c := range plan.Classes {
		answer(med, Request{Prefix: c.Members[0], K: k})
		if len(c.Members) > 1 {
			answer(med, Request{Prefix: c.Members[1], K: k, Record: i%2 == 0})
		}
	}
	for _, c := range plan.Classes {
		if c.Home == "" {
			continue
		}
		home := answer(med, Request{Prefix: c.Members[0], K: k, Region: c.Home})
		if home.Refused != "" || home.Summary == nil {
			answer(med, Request{Prefix: c.Members[0], K: k})
			continue
		}
		for _, r := range plan.Regions {
			if r == c.Home {
				continue
			}
			if imp := answer(med, Request{Prefix: c.Members[0], K: k, Region: r, Summary: home.Summary}); imp.Refused != "" {
				answer(med, Request{Prefix: c.Members[0], K: k})
				break
			}
		}
	}
	for i, cls := range k2Classes {
		answer(k2, Request{Prefix: cls.Rep.String(), K: k, Record: i%4 == 3})
	}
	t.Logf("%d passes kept the factory, %d recycled it", kept, recycled)
	if kept == 0 || recycled == 0 {
		t.Fatalf("%d passes kept the factory and %d recycled it: the sequence must exercise both", kept, recycled)
	}
}

// FuzzConnectionSequence decodes bytes into up to 8 passes on gen.Small
// K=1 — two bytes each: a class and member, then a region (or none) and a
// record bit; a region pass outside the class's home imports the home
// pass's cut summary — and answers them in order on one connSim and each
// on a fresh one. The answers must be equal: what a connection keeps
// between passes never shows in one.
func FuzzConnectionSequence(f *testing.F) {
	w, wa := workerOf(f, gen.Small())
	const k = 1
	plan := modularPlan(f, wa, k)
	homeCut := make([]Response, len(plan.Classes))
	for i, c := range plan.Classes {
		if c.Home != "" {
			homeCut[i] = w.answer(Request{Prefix: c.Members[0], K: k, Region: c.Home}, &connSim{})
		}
	}
	decode := func(data []byte) []Request {
		var reqs []Request
		for i := 0; i+1 < len(data) && len(reqs) < 8; i += 2 {
			ci := int(data[i]) % len(plan.Classes)
			c := plan.Classes[ci]
			req := Request{Prefix: c.Members[int(data[i])/len(plan.Classes)%len(c.Members)], K: k, Record: data[i+1]&0x80 != 0}
			if r := int(data[i+1]&0x7f) % (len(plan.Regions) + 1); r > 0 {
				req.Region = plan.Regions[r-1]
				if req.Region != c.Home {
					req.Summary = homeCut[ci].Summary
				}
			}
			reqs = append(reqs, req)
		}
		return reqs
	}
	f.Add([]byte{0, 0, 0, 0, 1, 0x80, 1, 0})
	f.Add([]byte{0, 1, 0, 1, 0, 2, 0, 0})
	f.Add([]byte{2, 0, 3, 0, 2, 0x80, 2, 1, 2, 2})
	f.Add([]byte{1, 0, 1, 0x80, 5, 0, 1, 0x80})
	f.Fuzz(func(t *testing.T, data []byte) {
		cs := &connSim{}
		for i, req := range decode(data) {
			sameAnswer(t, fmt.Sprintf("pass %d (%s region %q record %v)", i, req.Prefix, req.Region, req.Record),
				w.answer(req, cs), w.answer(req, &connSim{}))
		}
	})
}

// BenchmarkConnectionClasses is one connection's loop over every class of
// a workload shape: one connSim answers each representative's monolithic
// pass in class order, as a worker does the classes the scheduler hands
// it. One op is the whole loop, started from the session base: one
// untimed loop first builds the Shared, its IGP memo and the base, and
// every op Resets to it, so no op finds what an earlier one built.
func BenchmarkConnectionClasses(b *testing.B) {
	for _, tc := range []struct {
		name   string
		params gen.Params
		k      int
	}{{"compile-k3", compileK3, 3}, {"classes-k2", classesK2, 2}} {
		b.Run(tc.name, func(b *testing.B) {
			w, _ := workerOf(b, tc.params)
			m, err := w.sources[""].assemble()
			if err != nil {
				b.Fatal(err)
			}
			var reqs []Request
			for _, cls := range m.Classes() {
				reqs = append(reqs, Request{Prefix: cls.Rep.String(), K: tc.k})
			}
			cs := &connSim{}
			loop := func() {
				for _, req := range reqs {
					if resp := w.answer(req, cs); resp.Error != "" {
						b.Fatal(resp.Error)
					}
				}
			}
			loop()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cs.sim.Reset()
				loop()
			}
		})
	}
}
