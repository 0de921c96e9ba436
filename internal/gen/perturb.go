package gen

import (
	"fmt"
	"math/rand"

	"hoyan/internal/netaddr"
)

// LinkChange describes a topology mutation: a new link between two
// existing routers.
type LinkChange struct {
	A, B   string
	Weight uint32
}

// Perturbation is one operator-style change to a generated WAN: either a
// batch of incremental configuration lines for one device (Kind "policy"
// or "static") or a topology change (Kind "link"). Perturbations are
// designed to be applied cumulatively — names, sequence numbers and
// preferences embed the step index so later steps never collide with
// earlier ones.
type Perturbation struct {
	// Kind is "policy", "static", or "link".
	Kind string
	// Device names the router whose configuration changes (config kinds).
	Device string
	// Lines are incremental config.Update lines for Device (config kinds).
	Lines []string
	// Link is the added link (Kind "link" only).
	Link *LinkChange
	// Description explains the step for logs and bench records.
	Description string
}

// Perturb derives a deterministic series of n single-change perturbations
// from the seed. The kinds cycle policy → static → link, so any series of
// three or more steps exercises a prefix-scoped policy delta, a
// prefix-scoped static delta, and a topology delta (the incremental
// engine's conservative full-invalidation path), in that order.
//
// Policy steps add a prefix-list-matched term ahead of a PE's existing
// ingress TAG terms, pinning local-preference for one announced prefix —
// the paper's canonical "one policy term on one device" change whose
// incremental re-verification cost should be near-constant. On a PE with
// no ingress TAG (a spare PE, with no eBGP peer) the step defines a TAG
// policy that no neighbor or redistribution attaches: an inert edit,
// which changes no route (config.Device.PolicyInUse). Static steps
// add a static route for one announced prefix. Link steps add a PE-PE
// chord inside one region.
func Perturb(w *WAN, seed int64, n int) []Perturbation {
	rng := rand.New(rand.NewSource(seed))
	prefixes := w.Prefixes()
	out := make([]Perturbation, 0, n)
	for i := 0; i < n; i++ {
		switch i % 3 {
		case 0:
			out = append(out, perturbPolicy(w, rng, i, prefixes))
		case 1:
			out = append(out, perturbStatic(w, rng, i, prefixes))
		default:
			if p, ok := perturbLink(w, rng); ok {
				out = append(out, p)
			} else {
				// Every candidate pair already linked (tiny WANs after many
				// steps); fall back to another policy edit so the series
				// keeps its length.
				out = append(out, perturbPolicy(w, rng, i, prefixes))
			}
		}
	}
	return out
}

func perturbPolicy(w *WAN, rng *rand.Rand, i int, prefixes []netaddr.Prefix) Perturbation {
	pe := w.PEs[rng.Intn(len(w.PEs))]
	pfx := prefixes[rng.Intn(len(prefixes))]
	pl := fmt.Sprintf("PERT%d", i)
	seq := i%9 + 1 // generated TAG terms start at 10; stay ahead of them
	lp := 150 + i
	return Perturbation{
		Kind:   "policy",
		Device: pe,
		Lines: []string{
			fmt.Sprintf("ip prefix-list %s permit %s", pl, pfx),
			fmt.Sprintf("route-policy TAG permit %d", seq),
			fmt.Sprintf(" match prefix-list %s", pl),
			fmt.Sprintf(" set local-preference %d", lp),
		},
		Description: fmt.Sprintf("policy: %s TAG term %d pins local-pref %d for %s", pe, seq, lp, pfx),
	}
}

func perturbStatic(w *WAN, rng *rand.Rand, i int, prefixes []netaddr.Prefix) Perturbation {
	pe := w.PEs[rng.Intn(len(w.PEs))]
	var r, idx int
	fmt.Sscanf(pe, "pe-r%d-%d", &r, &idx)
	core := fmt.Sprintf("core-r%d-0", r)
	pfx := prefixes[rng.Intn(len(prefixes))]
	pref := 200 + i
	return Perturbation{
		Kind:   "static",
		Device: pe,
		Lines: []string{
			fmt.Sprintf("ip route %s %s preference %d", pfx, core, pref),
		},
		Description: fmt.Sprintf("static: %s routes %s via %s preference %d", pe, pfx, core, pref),
	}
}

func perturbLink(w *WAN, rng *rand.Rand) (Perturbation, bool) {
	for tries := 0; tries < 4*w.Params.Regions+4; tries++ {
		r := rng.Intn(w.Params.Regions)
		n := w.Params.PEsPerRegion
		if n < 2 {
			return Perturbation{}, false
		}
		ai := rng.Intn(n)
		bi := (ai + 1 + rng.Intn(n-1)) % n
		a := fmt.Sprintf("pe-r%d-%d", r, ai)
		b := fmt.Sprintf("pe-r%d-%d", r, bi)
		if linked(w, a, b) {
			continue
		}
		return Perturbation{
			Kind:        "link",
			Link:        &LinkChange{A: a, B: b, Weight: 35},
			Description: fmt.Sprintf("link: add %s ~ %s weight 35", a, b),
		}, true
	}
	return Perturbation{}, false
}

func linked(w *WAN, a, b string) bool {
	na, ok1 := w.Net.NodeByName(a)
	nb, ok2 := w.Net.NodeByName(b)
	if !ok1 || !ok2 {
		return true // never emit a link between unknown routers
	}
	for _, ad := range w.Net.Neighbors(na.ID) {
		if ad.Peer == nb.ID {
			return true
		}
	}
	return false
}
