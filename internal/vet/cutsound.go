package vet

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"hoyan/internal/core"
	"hoyan/internal/netaddr"
	"hoyan/internal/topo"
)

// CutSoundAnalyzer statically predicts core.Partition's UnsoundCut
// refusals: region-less BGP speakers (the partition itself refuses),
// families originated in more than one region (FamilyHome refuses),
// and re-export-across-two-cuts shapes. Re-exports come in two tiers:
// structural channels, where the session graph alone lets an imported
// route leave the region again (an out-of-region route-reflector
// client, eBGP transit), and AS-loop echo channels, where an imported
// route leaves through a PE, comes back from an external gateway with
// the WAN AS in its path, is accepted anyway by an allowas-in
// configuration or a loop-tolerant vendor profile, and under a small
// failure budget becomes the PE's best route and re-exports across a
// second cut. Structural defects report as warnings; pure refusal
// predictions (correct configuration the modular schedule declines)
// report as info and never fail a vet run.
var CutSoundAnalyzer = &Analyzer{
	Name: "cutsound",
	Code: "V006",
	Doc:  "predicts modular-verification refusals: region-less speakers, multi-region origins, re-export across two cuts",
	Run:  runCutSound,
}

func runCutSound(p *Pass) error {
	pred := PredictRefusals(p.Model, p.K)
	for _, g := range pred.Global {
		sev := SevWarn
		obj := "bgp"
		if g.Device == "" {
			sev, obj = SevInfo, "model"
		}
		p.Reportf(g.Device, obj, sev, "%s", g.Reason)
	}
	// Family-level refusals are per-device defect shapes; channel-level
	// (echo / structural re-export) predictions aggregate per channel so
	// an XL-scale model does not drown the report in one line per class.
	type channelKey struct{ region, device, object string }
	channelClasses := map[channelKey][]int{}
	var channelOrder []channelKey
	for ci, refs := range pred.ByClass {
		for _, r := range refs {
			if r.Region == "" {
				p.Reportf(r.Device, "bgp", SevWarn, "%s", r.Reason)
				continue
			}
			k := channelKey{r.Region, r.Device, r.Object}
			if _, ok := channelClasses[k]; !ok {
				channelOrder = append(channelOrder, k)
			}
			channelClasses[k] = append(channelClasses[k], ci)
		}
	}
	sort.Slice(channelOrder, func(i, j int) bool {
		a, b := channelOrder[i], channelOrder[j]
		if a.region != b.region {
			return a.region < b.region
		}
		if a.device != b.device {
			return a.device < b.device
		}
		return a.object < b.object
	})
	for _, k := range channelOrder {
		classes := channelClasses[k]
		first := pred.ByClass[classes[0]][0]
		for _, r := range pred.ByClass[classes[0]] {
			if r.Region == k.region && r.Device == k.device && r.Object == k.object {
				first = r
				break
			}
		}
		p.Reportf(k.device, k.object, SevInfo,
			"%s — %d of %d prefix classes predicted to refuse their %s import pass and fall back to monolithic simulation",
			first.Reason, len(classes), len(pred.ByClass), k.region)
	}
	return nil
}

// Refusal is one predicted modular refusal.
type Refusal struct {
	// Rep is the refused class representative (zero for global refusals).
	Rep netaddr.Prefix
	// Region is the import-pass region predicted to refuse; empty for
	// family-level refusals (FamilyHome fails before any pass runs) and
	// for global refusals.
	Region string
	// Device anchors the refusal: the offending speaker, the
	// minority-region origin, or the node accepting the echoed route.
	Device string
	// Object is the config block the refusal anchors to.
	Object string
	// Echo marks AS-loop echo channels (budget-dependent); false means
	// a structural re-export that refuses at any failure budget.
	Echo bool
	// Reason mirrors the UnsoundCut/FamilyHome vocabulary.
	Reason string
}

// Prediction is the full static refusal forecast for one model.
type Prediction struct {
	// Global holds model-level conditions under which the partition
	// itself refuses and every class falls back (region-less speakers,
	// fewer than two regions). When non-empty, ByClass is nil.
	Global []Refusal
	// Classes is the model's behavior-class partition; ByClass is
	// parallel to it, listing the predicted refusals of each class
	// (empty slice = verified modularly without fallback).
	Classes []core.PrefixClass
	ByClass [][]Refusal
}

// RefusedClasses counts classes with at least one predicted refusal.
func (p *Prediction) RefusedClasses() int {
	n := 0
	for _, refs := range p.ByClass {
		if len(refs) > 0 {
			n++
		}
	}
	return n
}

// PredictRefusals statically forecasts which prefix classes modular
// verification will refuse at failure budget k, without building a
// simulator. Family-level refusals mirror Partition.FamilyHome exactly.
// Structural re-exports come from a propagation closure over the static
// session table (route-reflector rules from the behavior model, policies
// treated as permissive): they fire at any budget because the capture
// message exists with zero failures. Echo channels are predicted from
// the activation signature described at echoChannels — the full failure
// scenario that turns a latent echo into a captured re-export must fit
// the budget, which is why a clean WAN is refusal-free at k <= 2 and
// starts refusing at k = 3. The gen.Medium equality test pins this
// calibration against RunRegion.
func PredictRefusals(m *core.Model, k int) *Prediction {
	pred := &Prediction{}
	ix := buildIndex(m)

	// Global conditions, mirroring core.NewPartition (every offender
	// reported, where NewPartition stops at the first).
	regions := map[string]bool{}
	for _, node := range m.Net.Nodes() {
		if node.Region != "" {
			regions[node.Region] = true
		}
		if node.Region == "" && m.Configs[node.ID].BGP != nil {
			pred.Global = append(pred.Global, Refusal{
				Device: node.Name, Object: "bgp",
				Reason: fmt.Sprintf("modular cut undefined: BGP speaker %q has no region; every class falls back to monolithic simulation", node.Name),
			})
		}
	}
	if len(regions) < 2 {
		pred.Global = append(pred.Global, Refusal{
			Reason: fmt.Sprintf("modular cut needs at least 2 regions, model has %d", len(regions)),
		})
	}
	if len(pred.Global) > 0 {
		return pred
	}
	regionNames := make([]string, 0, len(regions))
	for r := range regions {
		regionNames = append(regionNames, r)
	}
	sort.Strings(regionNames)

	// Structural channels are a property of (home region, import region)
	// only — the closure is family-independent because policies are
	// treated as permissive — so compute them once per region pair.
	structural := map[[2]string]*cutExit{}
	structuralFor := func(home, imp string) *cutExit {
		key := [2]string{home, imp}
		if c, ok := structural[key]; ok {
			return c
		}
		c := findCutExit(ix, home, imp)
		structural[key] = c
		return c
	}
	// Echo channels are a property of the import region alone; the home
	// side contributes the anchor condition (a single crossing link).
	echoes := map[string][]*echoChannel{}
	for _, imp := range regionNames {
		echoes[imp] = echoChannels(ix, imp)
	}
	crossings := regionCrossings(m)

	pred.Classes = m.Classes()
	pred.ByClass = make([][]Refusal, len(pred.Classes))
	for ci, cl := range pred.Classes {
		if ref, ok := familyRefusal(m, ix, cl.Rep); ok {
			pred.ByClass[ci] = append(pred.ByClass[ci], ref)
			continue
		}
		home := homeRegion(m, ix, cl.Rep)
		for _, imp := range regionNames {
			if imp == home {
				continue
			}
			if c := structuralFor(home, imp); c != nil {
				pred.ByClass[ci] = append(pred.ByClass[ci], structuralRefusal(ix, cl.Rep, imp, c))
				continue
			}
			key := [2]string{home, imp}
			if key[0] > key[1] {
				key[0], key[1] = key[1], key[0]
			}
			if crossings[key] != 1 {
				continue
			}
			for _, ec := range echoes[imp] {
				if k >= ec.cut+1 {
					pred.ByClass[ci] = append(pred.ByClass[ci], echoRefusal(ix, cl.Rep, imp, ec))
					break
				}
			}
		}
	}
	return pred
}

// familyRefusal predicts FamilyHome's per-family refusals: a
// region-less originator, origins spanning regions, or no origin at
// all. The anchor device for a multi-region family is the first origin
// in the region with the fewest origins — the outlier an operator
// would look at first.
func familyRefusal(m *core.Model, ix *index, p netaddr.Prefix) (Refusal, bool) {
	nodes := m.FamilyOrigins(p)
	if len(nodes) == 0 {
		return Refusal{Rep: p, Reason: fmt.Sprintf("nothing originates the family of %s", p)}, true
	}
	byRegion := map[string][]topo.NodeID{}
	for _, id := range nodes {
		r := ix.region(id)
		if r == "" {
			return Refusal{Rep: p, Device: ix.name(id), Object: "bgp",
				Reason: fmt.Sprintf("family of %s originates at region-less node %s; the class falls back to monolithic simulation", p, ix.name(id))}, true
		}
		byRegion[r] = append(byRegion[r], id)
	}
	if len(byRegion) > 1 {
		names := make([]string, 0, len(byRegion))
		for r := range byRegion {
			names = append(names, r)
		}
		sort.Strings(names)
		minority := names[0]
		for _, r := range names[1:] {
			if len(byRegion[r]) < len(byRegion[minority]) {
				minority = r
			}
		}
		return Refusal{Rep: p, Device: ix.name(byRegion[minority][0]), Object: "bgp",
			Reason: fmt.Sprintf("family of %s originates in regions %s; no single home region exists and the class falls back to monolithic simulation",
				p, strings.Join(names, ", "))}, true
	}
	return Refusal{}, false
}

// homeRegion returns the single origin region of a family that passed
// familyRefusal.
func homeRegion(m *core.Model, ix *index, p netaddr.Prefix) string {
	nodes := m.FamilyOrigins(p)
	if len(nodes) == 0 {
		return ""
	}
	return ix.region(nodes[0])
}

// regionCrossings counts the topology links crossing each region pair
// (both endpoints region-labeled, regions distinct). Key is the sorted
// pair. A pair joined by a single link is an "anchor bottleneck": the
// near-shortest inter-region paths all share that link, so the bounded
// IGP engine's kept-alternative sets concentrate on it and one failure
// severs the imported route's next-hop anchor from the far side.
func regionCrossings(m *core.Model) map[[2]string]int {
	out := map[[2]string]int{}
	for _, l := range m.Net.Links() {
		a, b := m.Net.Node(l.A), m.Net.Node(l.B)
		if a.Region == "" || b.Region == "" || a.Region == b.Region {
			continue
		}
		key := [2]string{a.Region, b.Region}
		if key[0] > key[1] {
			key[0], key[1] = key[1], key[0]
		}
		out[key]++
	}
	return out
}

// echoChannel is one feasible AS-loop echo activation in an import
// region: the failure scenario that makes the echoed route the
// acceptor's best, with its advertisement path still alive.
type echoChannel struct {
	// acceptor is the loop-tolerant speaker that admits the echoed
	// route; via is the external sender it echoes back from.
	acceptor, via topo.NodeID
	// cut is the number of link failures that activate the echo (the
	// acceptor's direct links to its in-region iBGP peers); the full
	// refusal scenario needs cut+1 failures (one more for the anchor
	// crossing), so the channel fires only at k >= cut+1.
	cut int
}

// echoChannels finds the feasible echo activations of one import
// region. The engine refuses an import pass when a capture session
// carries the class's routes back out of the region; for a clean WAN
// that only happens through the AS-loop echo, and only when one
// failure scenario simultaneously (a) makes the echoed route the
// acceptor's best and (b) leaves the acceptor a live iBGP path to
// re-export it. Statically that requires, for an external neighbor g
// and an in-region speaker b:
//
//   - b admits the echo: allowas-in on b's session with g, or b's
//     vendor profile tolerates its own AS in received paths;
//   - g has another in-region eBGP peer (the feeder that carries the
//     imported route out to g in the first place);
//   - b ranks first among g's in-region peers (router-id order, node
//     order on ties — the engine's rank tiebreak): g's steady-state
//     best is then b's own advertisement, and the same failures that
//     kill b's direct copies (its links to its iBGP peers) flip g to
//     the feeder's copy and hand b the echo. An acceptor ranked
//     behind the feeder holds the echo at zero failures but keeps
//     next-hop reachability through its partner when its uplinks
//     fail, so the direct route never dies and the echo never wins —
//     such regions verify cleanly at every budget;
//   - b keeps an intra-region IGP path to at least one of its iBGP
//     peers after those direct links fail (a PE-PE chord): without it
//     the activating scenario also severs every session that could
//     re-export the echo, and the capture guard is unsatisfiable.
//
// The channel's budget is cut+1: the activating link failures plus one
// more to sever the anchor crossing toward the home region.
func echoChannels(ix *index, imp string) []*echoChannel {
	m := ix.m
	// Collect external senders into imp and their in-region peers.
	type attach struct {
		via   topo.NodeID
		peers []topo.NodeID
	}
	byVia := map[topo.NodeID][]topo.NodeID{}
	var order []topo.NodeID
	for i := range ix.sessions {
		se := &ix.sessions[i]
		if se.IBGP || ix.region(se.To) != imp || ix.region(se.From) == "" {
			continue
		}
		// From is a candidate echo sender: an eBGP neighbor of an
		// in-region speaker. Skip senders inside the same AS-free
		// bucket... any eBGP neighbor qualifies; dedupe per sender.
		if _, ok := byVia[se.From]; !ok {
			order = append(order, se.From)
		}
		byVia[se.From] = append(byVia[se.From], se.To)
	}
	var out []*echoChannel
	for _, via := range order {
		peers := byVia[via]
		if len(peers) < 2 {
			continue // no feeder: the route cannot reach the sender and echo
		}
		best := peers[0]
		for _, p := range peers[1:] {
			if ranksBefore(m, p, best) {
				best = p
			}
		}
		b := best
		// Echo admission at b for routes from via.
		n, ok := m.Configs[b].BGP.FindNeighbor(ix.name(via))
		if !ok || (n.AllowASIn <= 0 && !m.Devices[b].Prof.AllowASLoop) {
			continue
		}
		cut, alive := uplinkCutSurvives(ix, b, imp)
		if !alive || cut == 0 {
			continue
		}
		out = append(out, &echoChannel{acceptor: b, via: via, cut: cut})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].acceptor != out[j].acceptor {
			return out[i].acceptor < out[j].acceptor
		}
		return out[i].via < out[j].via
	})
	return out
}

// ranksBefore mirrors the engine's speaker rank: lower router-id wins,
// node order breaks ties (unset router-ids compare as zero).
func ranksBefore(m *core.Model, a, b topo.NodeID) bool {
	ra, rb := m.Configs[a].BGP.RouterID, m.Configs[b].BGP.RouterID
	if ra != rb {
		return ra < rb
	}
	return a < b
}

// uplinkCutSurvives removes b's direct links to its in-region iBGP
// peers and reports (#links removed, whether b still reaches one of
// those peers through the remaining intra-region same-AS subgraph).
func uplinkCutSurvives(ix *index, b topo.NodeID, imp string) (int, bool) {
	m := ix.m
	as := m.Configs[b].BGP.AS
	peers := map[topo.NodeID]bool{}
	for _, si := range ix.byFrom[b] {
		se := &ix.sessions[si]
		if se.IBGP && ix.region(se.To) == imp {
			peers[se.To] = true
		}
	}
	if len(peers) == 0 {
		return 0, false
	}
	inRegion := func(id topo.NodeID) bool {
		n := m.Net.Node(id)
		cfg := m.Configs[id]
		return n.Region == imp && cfg.BGP != nil && cfg.BGP.AS == as
	}
	cut := 0
	adj := map[topo.NodeID][]topo.NodeID{}
	for _, l := range m.Net.Links() {
		if !inRegion(l.A) || !inRegion(l.B) {
			continue
		}
		if (l.A == b && peers[l.B]) || (l.B == b && peers[l.A]) {
			cut++
			continue
		}
		adj[l.A] = append(adj[l.A], l.B)
		adj[l.B] = append(adj[l.B], l.A)
	}
	seen := map[topo.NodeID]bool{b: true}
	queue := []topo.NodeID{b}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if peers[cur] {
			return cut, true
		}
		for _, nb := range adj[cur] {
			if !seen[nb] {
				seen[nb] = true
				queue = append(queue, nb)
			}
		}
	}
	return cut, false
}

func echoRefusal(ix *index, rep netaddr.Prefix, imp string, ec *echoChannel) Refusal {
	return Refusal{
		Rep: rep, Region: imp, Echo: true,
		Device: ix.name(ec.acceptor), Object: "neighbor/" + ix.name(ec.via),
		Reason: fmt.Sprintf("imported routes echo back from %s with the local AS in path and are accepted at %s (allowas-in or loop-tolerant vendor profile); %d failures activate the echo as best and re-export it across a second cut",
			ix.name(ec.via), ix.name(ec.acceptor), ec.cut+1),
	}
}

// cutExit describes one structural way an imported route leaves the
// import region over a second cut with zero failures.
type cutExit struct {
	// exporter -> target is the capture session the route crosses.
	exporter, target topo.NodeID
}

func structuralRefusal(ix *index, rep netaddr.Prefix, imp string, c *cutExit) Refusal {
	return Refusal{
		Rep: rep, Region: imp,
		Device: ix.name(c.exporter), Object: "neighbor/" + ix.name(c.target),
		Reason: fmt.Sprintf("imported routes re-export across a second cut at %s->%s (reflection or eBGP transit leaves the region)",
			ix.name(c.exporter), ix.name(c.target)),
	}
}

// Propagation kinds of the re-export closure, mirroring how the
// behavior model classifies a RIB entry for egress decisions.
const (
	kindEBGP      = iota // learned over eBGP: advertised to every peer
	kindClient           // learned over iBGP from an RR client: reflect everywhere
	kindNonClient        // learned over iBGP from a non-client: reflect to clients only
)

type closureState struct {
	node topo.NodeID
	kind uint8
	// ases is the canonical key of the AS set prepended on eBGP egress
	// hops so far — what the AS-loop ingress check consults.
	ases string
}

// findCutExit runs the structural propagation closure: a route injected
// into region imp over the home->imp cut sessions, forwarded under the
// route-reflector rules (policies permissive), until it either dies out
// or crosses a session leaving imp — the second cut whose capture makes
// RunRegion refuse with zero failures. The AS-loop check drops echoed
// paths here even at loop-tolerant receivers: budget-dependent echo
// activation is modeled separately by echoChannels, and admitting it in
// the closure would predict refusals the engine only produces under
// failures. Returns nil when the region is structurally re-export-free.
func findCutExit(ix *index, home, imp string) *cutExit {
	seen := map[closureState]bool{}
	var queue []closureState
	push := func(st closureState) {
		if !seen[st] {
			seen[st] = true
			queue = append(queue, st)
		}
	}
	for i := range ix.sessions {
		se := &ix.sessions[i]
		if ix.region(se.From) != home || ix.region(se.To) != imp {
			continue
		}
		st := closureState{node: se.To}
		if se.IBGP {
			if se.ToN.RouteReflectorClient {
				st.kind = kindClient
			} else {
				st.kind = kindNonClient
			}
		} else {
			st.kind = kindEBGP
		}
		push(st)
	}

	for qi := 0; qi < len(queue); qi++ {
		cur := queue[qi]
		for _, si := range ix.byFrom[cur.node] {
			se := &ix.sessions[si]
			// Egress legality at cur.node: iBGP-learned routes cross an
			// iBGP session only under the route-reflector rule; anything
			// crosses an eBGP session, and eBGP-learned routes go anywhere.
			if se.IBGP && cur.kind != kindEBGP {
				if cur.kind != kindClient && !se.FromN.RouteReflectorClient {
					continue
				}
			}
			if ix.region(se.To) != imp {
				// Second cut crossed: a capture session would carry this
				// route and the import pass refuses.
				return &cutExit{exporter: cur.node, target: se.To}
			}
			next := closureState{node: se.To, ases: cur.ases}
			if se.IBGP {
				if se.ToN.RouteReflectorClient {
					next.kind = kindClient
				} else {
					next.kind = kindNonClient
				}
			} else {
				next.kind = kindEBGP
				next.ases = addAS(cur.ases, ix.m.Configs[se.From].BGP.AS)
				if asInSet(next.ases, ix.m.Configs[se.To].BGP.AS) {
					continue
				}
			}
			push(next)
		}
	}
	return nil
}

// addAS returns the canonical key of set ∪ {as}: sorted, comma-joined.
func addAS(set string, as uint32) string {
	s := strconv.FormatUint(uint64(as), 10)
	if set == "" {
		return s
	}
	parts := strings.Split(set, ",")
	for _, p := range parts {
		if p == s {
			return set
		}
	}
	parts = append(parts, s)
	sort.Slice(parts, func(i, j int) bool {
		a, _ := strconv.ParseUint(parts[i], 10, 32)
		b, _ := strconv.ParseUint(parts[j], 10, 32)
		return a < b
	})
	return strings.Join(parts, ",")
}

func asInSet(set string, as uint32) bool {
	if set == "" {
		return false
	}
	s := strconv.FormatUint(uint64(as), 10)
	for _, p := range strings.Split(set, ",") {
		if p == s {
			return true
		}
	}
	return false
}
