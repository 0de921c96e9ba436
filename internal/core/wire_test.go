package core

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"hoyan/internal/behavior"
	"hoyan/internal/config"
	"hoyan/internal/gen"
	"hoyan/internal/netaddr"
	"hoyan/internal/route"
	"hoyan/internal/topo"
)

// badGadget builds Griffin's BAD GADGET: O (AS 100) announces 10.0.0.0/8
// to a ring R1, R2, R3 (AS 1, 2, 3). Each Ri takes from its clockwise
// neighbour only paths without R(i+2)'s AS, at local-preference 200, and
// denies all from the other neighbour. Every Ri prefers the path through
// its clockwise neighbour to its own direct one, so there is no stable
// state: only oscillation damping ends the fixpoint. regions puts O in a
// region of its own and the ring in another; otherwise every node is in
// one region.
func badGadget(t testing.TB, regions bool) *Model {
	t.Helper()
	net := topo.NewNetwork()
	for i, name := range []string{"O", "R1", "R2", "R3"} {
		region := "r0"
		if regions && i > 0 {
			region = "ring"
		}
		net.MustAddNode(topo.Node{Name: name, AS: []uint32{100, 1, 2, 3}[i], Vendor: behavior.VendorAlpha, Region: region})
	}
	for _, l := range [][2]topo.NodeID{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {2, 3}, {3, 1}} {
		net.MustAddLink(l[0], l[1], 10)
	}
	snap := config.Snapshot{}
	add := func(name, text string) {
		d, err := config.Parse(text)
		if err != nil {
			t.Fatalf("config for %s: %v", name, err)
		}
		snap[name] = d
	}
	add("O", "hostname O\nrouter bgp 100\n network 10.0.0.0/8\n neighbor R1 remote-as 1\n neighbor R2 remote-as 2\n neighbor R3 remote-as 3\n")
	for i := 1; i <= 3; i++ {
		cw, other, avoid := i%3+1, (i+1)%3+1, (i+1)%3+1
		add(fmt.Sprintf("R%d", i), fmt.Sprintf("hostname R%d\nrouter bgp %d\n neighbor O remote-as 100\n"+
			" neighbor R%d remote-as %d\n neighbor R%d route-policy CW in\n"+
			" neighbor R%d remote-as %d\n neighbor R%d route-policy NONE in\n"+
			"route-policy CW deny 10\n match as-path %d\nroute-policy CW permit 20\n set local-preference 200\n"+
			"route-policy NONE deny 10\n",
			i, i, cw, cw, cw, other, other, other, avoid))
	}
	m, err := Assemble(net, snap, behavior.TrueProfiles())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestBadGadgetWireMatchesHeld: on a net with no stable state, damping
// freezes one session (R1→R3 at K=0, R2→R1 at K=1 and K=3), and the
// wire view of every session, the frozen one included, must be what its
// receiver holds from the sender: the wire entries that pass the
// receiver's ingress are exactly the receiver's RIB entries from that
// sender. Re-announcing a frozen session from the converged state, as a
// second pass after the fixpoint would, breaks this.
func TestBadGadgetWireMatchesHeld(t *testing.T) {
	m := badGadget(t, false)
	p := netaddr.MustParse("10.0.0.0/8")
	for _, k := range []int{0, 1, 3} {
		opts := DefaultOptions()
		opts.K = k
		s := NewSimulator(m, opts)
		res, err := s.Run(p)
		if err != nil {
			t.Fatalf("K=%d: %v", k, err)
		}
		if res.Stats.FrozenSessions == 0 {
			t.Fatalf("K=%d: BAD GADGET froze no session: the test shows nothing", k)
		}
		sessions, err := s.SessionList()
		if err != nil {
			t.Fatal(err)
		}
		for _, se := range sessions {
			sent, _ := res.SessionUpdates(se.From, se.To)
			devU, devV := m.Devices[se.From], m.Devices[se.To]
			toN, _ := devV.Neighbor(devU.Cfg.Hostname)
			var passed []Entry
			for _, e := range sent {
				ing := devV.ProcessIngress(e.Route, devU, toN)
				if ing.Verdict != behavior.Pass {
					continue
				}
				cond := e.Cond
				if opts.Simplify && s.F.Len(cond) > SimplifyThreshold {
					cond = s.F.Simplify(cond)
				}
				passed = append(passed, Entry{Route: ing.Route, Cond: cond})
			}
			var held []Entry
			for _, e := range res.EntriesFor(se.To, p) {
				if e.Route.IsBGP() && e.Route.FromNode == se.From {
					held = append(held, e)
				}
			}
			if !sameEntrySet(s, passed, held) {
				t.Errorf("K=%d: %s→%s: the wire view passes %d entries through the receiver's ingress, the receiver holds %d from the sender, and they differ",
					k, m.Net.Node(se.From).Name, m.Net.Node(se.To).Name, len(passed), len(held))
			}
		}
	}
}

// sameEntrySet reports whether a and b hold the same entries in any
// order: same attributes, same sender, equivalent conditions.
func sameEntrySet(s *Simulator, a, b []Entry) bool {
	if len(a) != len(b) {
		return false
	}
	used := make([]bool, len(b))
next:
	for _, x := range a {
		for j, y := range b {
			if !used[j] && route.SameAttrs(x.Route, y.Route) && x.Route.FromNode == y.Route.FromNode &&
				s.F.Equivalent(x.Cond, y.Cond) {
				used[j] = true
				continue next
			}
		}
		return false
	}
	return true
}

// TestBadGadgetRegionRefusesDamping: with O in a region of its own, the
// home pass exports O's announcements and the ring's import pass freezes
// a session, which the cut refuses: damping picks a stable state by
// dequeue order, and a region pass need not pick the monolithic one.
func TestBadGadgetRegionRefusesDamping(t *testing.T) {
	m := badGadget(t, true)
	p := netaddr.MustParse("10.0.0.0/8")
	pt, err := NewPartition(m)
	if err != nil {
		t.Fatal(err)
	}
	home, err := pt.FamilyHome(m, p)
	if err != nil || pt.RegionName(home) != "r0" {
		t.Fatalf("home of %s: region %d, %v", p, home, err)
	}
	s := NewSimulator(m, DefaultOptions())
	_, sum, err := s.RunRegion(p, pt, home, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Msgs) != 3 {
		t.Fatalf("home summary carries %d messages, want O's 3 announcements", len(sum.Msgs))
	}
	_, _, err = s.RunRegion(p, pt, pt.RegionIndex("ring"), sum)
	var uc *UnsoundCut
	if !errors.As(err, &uc) || !strings.Contains(uc.Reason, "oscillation damping") {
		t.Fatalf("the ring's import pass must refuse the cut for damping, got %v", err)
	}
}

// referenceWire is the wire view as Run once derived it, in a second
// pass after the fixpoint: every sender's RIB re-assembled from the
// converged state and every session that damping did not freeze
// announced again. Call it right after a monolithic Run, before the
// simulator runs again.
func referenceWire(s *Simulator, res *Result) [][]Entry {
	inFamily := map[netaddr.Prefix]bool{}
	for _, p := range res.Prefixes {
		inFamily[p] = true
	}
	wire := make([][]Entry, len(s.sessions))
	var scratch Stats
	for u := range s.M.Net.NumNodes() {
		s.bgpRIB(u, inFamily)
		for _, si := range s.sessionsBy[u] {
			if s.sc.changes[si] <= s.damping {
				_, wire[si] = s.announce(s.sessions[si], si, &scratch)
			}
		}
	}
	return wire
}

// TestWireViewMatchesFinalPass pins the wire view the fixpoint stores to
// the reference second pass, routes and condition ids alike, on every
// class representative of gen.Small at K=1 and K=2, gen.Medium at K=1
// and a net of the classes-k2 benchmark workload's shape (64 one-prefix
// classes, K=2).
func TestWireViewMatchesFinalPass(t *testing.T) {
	classesK2 := gen.Params{Seed: 1, Regions: 2, CoresPerRegion: 2, PEsPerRegion: 4,
		MANsPerRegion: 1, PeersPerRegion: 8, PrefixesPerPeer: 4, ExtraCoreLinks: 1, WANAS: 64500, PolicyDiversity: 4}
	for _, tc := range []struct {
		name string
		p    gen.Params
		k    int
	}{
		{"small-k1", gen.Small(), 1},
		{"small-k2", gen.Small(), 2},
		{"medium-k1", gen.Medium(), 1},
		{"classes-k2", classesK2, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if testing.Short() && tc.name == "medium-k1" {
				t.Skip("gen.Medium in -short")
			}
			m := modelFrom(t, tc.p)
			opts := DefaultOptions()
			opts.K = tc.k
			s := NewShared(m, opts).NewSimulator()
			for _, cls := range m.Classes() {
				res, err := s.Run(cls.Rep)
				if err != nil {
					t.Fatal(err)
				}
				want := referenceWire(s, res)
				for si, se := range s.sessions {
					got := res.sessionMsgs[si] // what SessionUpdates returns
					if len(got) != len(want[si]) || (len(got) > 0 && !reflect.DeepEqual(got, want[si])) {
						t.Fatalf("%s: session %s→%s: the fixpoint's wire view %v, the final pass %v",
							cls.Rep, m.Net.Node(se.From).Name, m.Net.Node(se.To).Name, got, want[si])
					}
				}
			}
		})
	}
}
