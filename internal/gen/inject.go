package gen

import (
	"fmt"
	"sort"

	"hoyan/internal/config"
	"hoyan/internal/netaddr"
	"hoyan/internal/policy"
)

// Defect identifies one plantable configuration defect kind, matched
// one-to-one with a vet analyzer. Inject mutates a generated WAN so
// that exactly that analyzer must fire at a known device — the ground
// truth the vet golden suite pins.
type Defect string

// Injectable defect kinds, one per vet analyzer.
const (
	// DefectTermShadow prepends a match-all term to a PE's TAG policy,
	// making every later term unreachable (vet: termshadow/V001).
	DefectTermShadow Defect = "termshadow"
	// DefectDeadRef defines a prefix-list no policy term references
	// (vet: deadref/V002).
	DefectDeadRef Defect = "deadref"
	// DefectIBGPGap removes every neighbor statement from one MAN,
	// disconnecting it from the iBGP mesh (vet: ibgpgap/V003).
	DefectIBGPGap Defect = "ibgpgap"
	// DefectStaticNH adds a static route whose next-hop shares no link
	// with the device (vet: staticnh/V004).
	DefectStaticNH Defect = "staticnh"
	// DefectAsymCut moves a gateway into the neighboring region, turning
	// its PE sessions into cut-crossing eBGP with a policy on only the
	// PE side (vet: asymcut/V005).
	DefectAsymCut Defect = "asymcut"
	// DefectCutSound originates one gateway-owned prefix from a second
	// region, splitting the family's home (vet: cutsound/V006).
	DefectCutSound Defect = "cutsound"
)

// Defects lists every injectable kind in stable order.
func Defects() []Defect {
	return []Defect{
		DefectTermShadow, DefectDeadRef, DefectIBGPGap,
		DefectStaticNH, DefectAsymCut, DefectCutSound,
	}
}

// Injection records where a defect was planted and where the matching
// vet diagnostic must anchor.
type Injection struct {
	Defect Defect
	// Device is the router the diagnostic must name; Object is the
	// config block it must anchor to.
	Device, Object string
	// Description explains the planted defect for logs.
	Description string
}

// Inject plants one defect of the given kind into the WAN and returns
// the anchor the resulting vet diagnostic must carry. It replaces each
// device it edits in the snapshot with an edited copy (a snapshot's
// devices are never edited in place: config.Device); DefectAsymCut also
// edits the topology in place. The mutations are deterministic: the
// same WAN and kind always produce the same defect at the same device.
func Inject(w *WAN, d Defect) (Injection, error) {
	switch d {
	case DefectTermShadow:
		return injectTermShadow(w)
	case DefectDeadRef:
		return injectDeadRef(w)
	case DefectIBGPGap:
		return injectIBGPGap(w)
	case DefectStaticNH:
		return injectStaticNH(w)
	case DefectAsymCut:
		return injectAsymCut(w)
	case DefectCutSound:
		return injectCutSound(w)
	}
	return Injection{}, fmt.Errorf("gen: unknown defect kind %q", d)
}

// edit replaces the named device of w's snapshot with a copy and
// returns the copy, the one the caller may change.
func edit(w *WAN, name string) *config.Device {
	d := w.Snap[name].Clone()
	w.Snap[name] = d
	return d
}

func injectTermShadow(w *WAN) (Injection, error) {
	for _, pe := range w.PEs {
		if tag, ok := w.Snap[pe].RoutePolicies["TAG"]; !ok || len(tag.Terms) == 0 {
			continue // spare PEs of a redundancy group carry no TAG
		}
		tag := edit(w, pe).RoutePolicies["TAG"]
		tag.Terms = append([]policy.Term{{Seq: 5, Action: policy.Permit}}, tag.Terms...)
		return Injection{
			Defect: DefectTermShadow, Device: pe, Object: "route-policy/TAG",
			Description: fmt.Sprintf("match-all term 5 ahead of %s's TAG terms shadows all of them", pe),
		}, nil
	}
	return Injection{}, fmt.Errorf("gen: no PE carries a TAG policy to shadow")
}

func injectDeadRef(w *WAN) (Injection, error) {
	if len(w.Cores) == 0 {
		return Injection{}, fmt.Errorf("gen: no core to plant an orphan prefix-list on")
	}
	core := w.Cores[0]
	edit(w, core).PrefixLists["ORPHAN"] = &policy.PrefixList{
		Name:  "ORPHAN",
		Rules: []policy.PrefixRule{{Prefix: netaddr.MustParse("10.250.0.0/16"), Action: policy.Permit}},
	}
	return Injection{
		Defect: DefectDeadRef, Device: core, Object: "prefix-list/ORPHAN",
		Description: fmt.Sprintf("prefix-list ORPHAN on %s is referenced by nothing", core),
	}, nil
}

func injectIBGPGap(w *WAN) (Injection, error) {
	if len(w.MANs) == 0 {
		return Injection{}, fmt.Errorf("gen: no MAN to disconnect from the iBGP mesh")
	}
	man := w.MANs[0]
	if cfg := w.Snap[man]; cfg.BGP == nil || len(cfg.BGP.Neighbors) == 0 {
		return Injection{}, fmt.Errorf("gen: MAN %s has no BGP neighbors to remove", man)
	}
	edit(w, man).BGP.Neighbors = nil
	return Injection{
		Defect: DefectIBGPGap, Device: man, Object: "bgp",
		Description: fmt.Sprintf("all neighbor statements removed from %s; no origin's routes can reach it", man),
	}, nil
}

func injectStaticNH(w *WAN) (Injection, error) {
	if len(w.Cores) == 0 || len(w.PEs) == 0 {
		return Injection{}, fmt.Errorf("gen: need a core and a PE for a dead static next-hop")
	}
	core := w.Cores[0]
	coreNode, _ := w.Net.NodeByName(core)
	// The next-hop must be modeled but link-less from the core: any PE
	// in a different region qualifies (PE uplinks stay intra-region).
	for _, pe := range w.PEs {
		peNode, _ := w.Net.NodeByName(pe)
		if peNode.Region == coreNode.Region {
			continue
		}
		pfx := netaddr.MustParse("10.254.0.0/24")
		dev := edit(w, core)
		dev.Statics = append(dev.Statics, config.StaticRoute{Prefix: pfx, NextHop: pe})
		return Injection{
			Defect: DefectStaticNH, Device: core, Object: "static/" + pfx.String(),
			Description: fmt.Sprintf("static on %s via %s, which shares no link with it", core, pe),
		}, nil
	}
	return Injection{}, fmt.Errorf("gen: no PE outside %s's region", core)
}

func injectAsymCut(w *WAN) (Injection, error) {
	if len(w.Peers) == 0 {
		return Injection{}, fmt.Errorf("gen: no gateway to move across the cut")
	}
	gw := w.Peers[0]
	gwNode, _ := w.Net.NodeByName(gw)
	var target string
	for _, core := range w.Cores {
		cn, _ := w.Net.NodeByName(core)
		if cn.Region != gwNode.Region && cn.Region != "" {
			target = cn.Region
			break
		}
	}
	if target == "" {
		return Injection{}, fmt.Errorf("gen: no second region to move %s into", gw)
	}
	// The gateway's eBGP sessions now cross the region cut; the PEs
	// keep their TAG ingress policy, the gateway side has none.
	var peSide string
	for _, n := range w.Snap[gw].BGP.Neighbors {
		if peSide == "" || n.PeerName < peSide {
			peSide = n.PeerName
		}
	}
	gwNode.Region = target
	return Injection{
		Defect: DefectAsymCut, Device: peSide, Object: "neighbor/" + gw,
		Description: fmt.Sprintf("%s moved into %s; its sessions cross the cut with a policy only on the PE side", gw, target),
	}, nil
}

func injectCutSound(w *WAN) (Injection, error) {
	if len(w.Peers) < 2 {
		return Injection{}, fmt.Errorf("gen: need two gateways to split a family's home")
	}
	home := w.Peers[0]
	homeNode, _ := w.Net.NodeByName(home)
	var stray string
	for _, gw := range w.Peers[1:] {
		n, _ := w.Net.NodeByName(gw)
		if n.Region != homeNode.Region {
			stray = gw
			break
		}
	}
	if stray == "" {
		return Injection{}, fmt.Errorf("gen: no gateway outside %s's region", home)
	}
	var owned []netaddr.Prefix
	for pfx, owner := range w.PrefixOwners {
		if owner == home {
			owned = append(owned, pfx)
		}
	}
	if len(owned) == 0 {
		return Injection{}, fmt.Errorf("gen: gateway %s owns no prefixes", home)
	}
	sort.Slice(owned, func(i, j int) bool {
		if owned[i].Addr != owned[j].Addr {
			return owned[i].Addr < owned[j].Addr
		}
		return owned[i].Len < owned[j].Len
	})
	pfx := owned[0]
	// A second home-side origin (an attached PE holding a static toward
	// the gateway) keeps the home region the majority, so the refusal
	// anchors at the stray origin — the device the operator actually
	// got wrong.
	var attached string
	for _, n := range w.Snap[home].BGP.Neighbors {
		if attached == "" || n.PeerName < attached {
			attached = n.PeerName
		}
	}
	if attached == "" {
		return Injection{}, fmt.Errorf("gen: gateway %s has no attached PE", home)
	}
	at := edit(w, attached)
	at.Statics = append(at.Statics, config.StaticRoute{Prefix: pfx, NextHop: home})
	st := edit(w, stray)
	st.BGP.Networks = append(st.BGP.Networks, pfx)
	return Injection{
		Defect: DefectCutSound, Device: stray, Object: "bgp",
		Description: fmt.Sprintf("%s (owned by %s) also originated at %s; the family spans two regions", pfx, home, stray),
	}, nil
}
