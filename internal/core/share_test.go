package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"hoyan/internal/gen"
	"hoyan/internal/logic"
	"hoyan/internal/route"
)

// sharedRouteWAN is gen.Small with configuration that sends shared routes
// through every slice mutator of the route package. Two gateways
// redistribute a static through a policy that gives the origin route
// communities and a path with private ASes, so the Model's origin routes,
// which every simulator reads, carry slices the pipelines rewrite:
// remove-private-as under a strip-all vendor (gw-r0-0, gamma) and a
// leading-run vendor (gw-r1-0, beta), community delete, add and none,
// as-path prepend and local-as (beta announces old and new AS), on the
// gateways' eBGP sessions and on PEs of both remove-private-as kinds
// (pe-r0-1 alpha, pe-r1-1 beta) back toward them.
func sharedRouteWAN(t *testing.T) *gen.WAN {
	t.Helper()
	w := generate(t, gen.Small())
	editConfig(t, w, "gw-r0-0",
		"ip route 10.9.0.0/24 pe-r0-0",
		"route-policy ORIG permit 10",
		"set community add 65001:1 65001:2 65001:3",
		"set as-path prepend 65010 3000 65011",
		"route-policy OUT permit 10",
		"set community delete 65001:2",
		"set community add 65001:9",
		"router bgp 65001",
		"redistribute static route-policy ORIG",
		"neighbor pe-r0-0 route-policy OUT out",
		"neighbor pe-r0-0 remove-private-as",
		"neighbor pe-r0-1 remove-private-as")
	editConfig(t, w, "gw-r1-0",
		"ip route 10.9.1.0/24 pe-r1-0",
		"route-policy ORIG permit 10",
		"set community add 65003:1 65003:2",
		"set as-path prepend 65020 4000 65021",
		"route-policy OUT permit 10",
		"set community none",
		"set community add 65003:7",
		"set as-path prepend 65003",
		"router bgp 65003",
		"local-as 65300",
		"redistribute static route-policy ORIG",
		"neighbor pe-r1-0 route-policy OUT out",
		"neighbor pe-r1-0 remove-private-as",
		"neighbor pe-r1-1 remove-private-as")
	editConfig(t, w, "pe-r0-1", "router bgp 64500", "neighbor gw-r0-0 remove-private-as")
	editConfig(t, w, "pe-r1-1", "router bgp 64500", "neighbor gw-r1-0 remove-private-as")
	return w
}

// runRecord renders everything a run of cls computed: Stats, every RIB
// entry's route attributes, and the exported bytes of every entry's
// condition. Two runs that computed the same answer render the same
// bytes.
func runRecord(sim *Simulator, cls PrefixClass) ([]byte, error) {
	res, err := sim.Run(cls.Rep)
	if err != nil {
		return nil, err
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "%+v\n", res.Stats)
	var conds []logic.F
	for _, node := range sim.M.Net.Nodes() {
		for _, e := range res.RIB(node.ID) {
			fmt.Fprintf(&b, "%s: %v from=%d comms=%v ext=%v\n", node.Name, e.Route, e.Route.FromNode, e.Route.Comms, e.Route.ExtComms)
			conds = append(conds, e.Cond)
		}
	}
	exp, err := json.Marshal(sim.F.Export(conds...))
	if err != nil {
		return nil, err
	}
	b.Write(exp)
	return b.Bytes(), nil
}

// TestConcurrentSimulatorsShareRoutes pins the copy-on-write rule where it
// matters: two simulators of one Shared run every class at once over
// origin routes whose slices the pipelines rewrite (sharedRouteWAN), and
// each must compute, byte for byte, what one simulator computes alone.
// Under the race detector (make determinism runs it ten times) a mutator
// that wrote a shared slice in place is a reported race; without it, a
// corrupted origin shows as a different record.
func TestConcurrentSimulatorsShareRoutes(t *testing.T) {
	m := assembleWAN(t, sharedRouteWAN(t))
	var shaped int
	for _, routes := range m.Origins() {
		for _, r := range routes {
			if len(r.Comms) > 0 && len(r.ASPath) > 0 && route.IsPrivateAS(r.ASPath[0]) {
				shaped++
			}
		}
	}
	if shaped != 2 {
		t.Fatalf("%d origin routes carry communities and a private leading AS, want 2: the test shows nothing", shaped)
	}
	opts := DefaultOptions()
	opts.K = 1
	sh := NewShared(m, opts)
	classes := m.Classes()

	serial := make([][]byte, len(classes))
	sim := sh.NewSimulator()
	for i, cls := range classes {
		sim.Reset()
		rec, err := runRecord(sim, cls)
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = rec
	}

	var got [2][][]byte
	var errs [2]error
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sim := sh.NewSimulator()
			for _, cls := range classes {
				sim.Reset()
				rec, err := runRecord(sim, cls)
				if err != nil {
					errs[g] = err
					return
				}
				got[g] = append(got[g], rec)
			}
		}()
	}
	wg.Wait()
	for g := range got {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		for i, cls := range classes {
			if !bytes.Equal(got[g][i], serial[i]) {
				t.Fatalf("simulator %d, class of %s: record differs from the serial run's:\n%s\nwant:\n%s", g, cls.Rep, got[g][i], serial[i])
			}
		}
	}
}
