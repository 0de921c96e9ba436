// Package tuner implements Hoyan's behavior-model tuner (§6): the backend
// loop that black-box-compares the verifier's computed routes against the
// production network (our device.Oracle), localizes the first place a
// divergence appears — device, pipeline direction, and route attribute —
// and proposes a patch to the vendor behavior profile.
//
// The two key mechanisms from the paper are reproduced:
//
//   - ext-RIB comparison: all selection-relevant attributes are compared,
//     not just best routes, so VSBs that leave the best route intact still
//     surface;
//   - update-log cross-checks: some VSBs (Figure 6's community stripping)
//     are invisible in every RIB and only appear in the updates a device
//     sends, so the localizer also compares per-session update feeds.
package tuner

import (
	"fmt"
	"sort"
	"time"

	"hoyan/internal/behavior"
	"hoyan/internal/config"
	"hoyan/internal/core"
	"hoyan/internal/device"
	"hoyan/internal/netaddr"
	"hoyan/internal/route"
	"hoyan/internal/topo"
)

// Mismatch is one localized divergence between the model and the oracle.
type Mismatch struct {
	Prefix netaddr.Prefix
	// Node is the localized root cause: the first device whose inputs
	// agree with production but whose state or output does not.
	Node   topo.NodeID
	Vendor string
	// Attribute is the first differing route attribute ("presence" when a
	// route exists on one side only).
	Attribute string
	// Via says where the divergence was observed: "ext-rib" or
	// "update-log".
	Via string
	// LocalizeTime is how long localization took (Figure 16's metric).
	LocalizeTime time.Duration
}

// String renders the mismatch for operators.
func (m Mismatch) String() string {
	return fmt.Sprintf("%s@node%d(%s): %s differs via %s", m.Prefix, m.Node, m.Vendor, m.Attribute, m.Via)
}

// Validator drives validation of one configuration snapshot against the
// oracle. Registry is the model under test and is mutated by Apply.
type Validator struct {
	Net      *topo.Network
	Snap     config.Snapshot
	Registry *behavior.Registry
	Oracle   *device.Oracle
	Opts     core.Options
}

// New builds a validator. The oracle is constructed from the same
// topology and snapshot (production runs the same configs; only the
// device behaviors differ).
func New(net *topo.Network, snap config.Snapshot, reg *behavior.Registry, opts core.Options) (*Validator, error) {
	o, err := device.NewOracle(net, snap, opts)
	if err != nil {
		return nil, err
	}
	return &Validator{Net: net, Snap: snap, Registry: reg, Oracle: o, Opts: opts}, nil
}

// modelResult simulates the prefix under the current model registry.
func (v *Validator) modelResult(p netaddr.Prefix) (*core.Result, error) {
	m, err := core.Assemble(v.Net, v.Snap, v.Registry)
	if err != nil {
		return nil, err
	}
	return core.NewSimulator(m, v.Opts).Run(p)
}

// diffEntryLists compares two ranked route lists as multisets, returning
// the first differing attribute ("" when identical).
func diffEntryLists(model, oracle []route.Route) string {
	_, attr := diffEntryCount(model, oracle)
	return attr
}

// diffEntryCount compares two route lists as multisets, returning how many
// routes fail to pair up (the tuner's fine-grained objective — one device
// can exhibit several VSBs at once and each fix must register) and the
// first differing attribute.
func diffEntryCount(model, oracle []route.Route) (int, string) {
	matched := make([]bool, len(oracle))
	var unmatchedModel []route.Route
	for _, mr := range model {
		found := false
		for j, or := range oracle {
			if !matched[j] && route.SameAttrs(mr, or) {
				matched[j] = true
				found = true
				break
			}
		}
		if !found {
			unmatchedModel = append(unmatchedModel, mr)
		}
	}
	var unmatchedOracle []route.Route
	for j, or := range oracle {
		if !matched[j] {
			unmatchedOracle = append(unmatchedOracle, or)
		}
	}
	count := len(unmatchedModel) + len(unmatchedOracle)
	switch {
	case count == 0:
		return 0, ""
	case len(unmatchedModel) == 0 || len(unmatchedOracle) == 0:
		return count, "presence"
	default:
		return count, route.DiffAttrs(unmatchedModel[0], unmatchedOracle[0])
	}
}

// activeRoutes extracts the all-links-up routes of a node from a result.
func activeRoutes(res *core.Result, n topo.NodeID) []route.Route {
	var out []route.Route
	for _, e := range res.ActiveEntries(n, nil) {
		out = append(out, e.Route)
	}
	return out
}

// ValidatePrefix compares the model and the oracle for one prefix and
// returns the localized root-cause mismatches (often a single device; the
// paper localizes to O(10) configuration lines).
func (v *Validator) ValidatePrefix(p netaddr.Prefix) ([]Mismatch, error) {
	start := time.Now()
	model, err := v.modelResult(p)
	if err != nil {
		return nil, err
	}
	// Stage 1: ext-RIB comparison per node.
	ribDiff := map[topo.NodeID]string{}
	for _, node := range v.Net.Nodes() {
		oracleRIB, err := v.Oracle.PullExtRIB(node.ID, p)
		if err != nil {
			return nil, err
		}
		var oracleRoutes []route.Route
		for _, e := range oracleRIB.Entries {
			oracleRoutes = append(oracleRoutes, e.Route)
		}
		if d := diffEntryLists(activeRoutes(model, node.ID), oracleRoutes); d != "" {
			ribDiff[node.ID] = d
		}
	}

	// Stage 2: update-log comparison per session (catches latent VSBs).
	type sessDiff struct {
		from, to topo.NodeID
		attr     string
	}
	var updateDiffs []sessDiff
	for _, se := range sessionPairs(model) {
		oracleLog, err := v.Oracle.UpdateLog(se.From, se.To, p)
		if err != nil {
			return nil, err
		}
		entries, _ := model.SessionUpdates(se.From, se.To)
		var modelLog []route.Route
		for _, e := range entries {
			if model.Sim.F.Eval(e.Cond, nil) {
				modelLog = append(modelLog, e.Route)
			}
		}
		if d := diffEntryLists(modelLog, oracleLog); d != "" {
			updateDiffs = append(updateDiffs, sessDiff{from: se.From, to: se.To, attr: d})
		}
	}

	// Root-cause localization: a node is a root cause when its own state
	// or output diverges but everything it received matches production —
	// the divergence starts there. (Figure 6: R2's RIB matches but its
	// output to R3 differs; R3 and R4 have RIB diffs but also input
	// diffs, so R2 is the root cause.)
	inputDiff := map[topo.NodeID]bool{}
	outputDiff := map[topo.NodeID]string{}
	for _, d := range updateDiffs {
		inputDiff[d.to] = true
		if _, ok := outputDiff[d.from]; !ok {
			outputDiff[d.from] = d.attr
		}
	}
	// One mismatch per (node, vantage point): a device can exhibit two
	// independent VSBs at once (e.g. as-loop in its RIB and community
	// stripping in its updates), and the patch search needs to see each
	// fixed separately to measure progress.
	var out []Mismatch
	seen := map[string]bool{}
	elapsed := time.Since(start)
	addRoot := func(n topo.NodeID, attr, via string) {
		key := fmt.Sprintf("%d/%s", n, via)
		if seen[key] {
			return
		}
		seen[key] = true
		out = append(out, Mismatch{
			Prefix: p, Node: n, Vendor: vendorOf(v.Net, v.Snap, n),
			Attribute: attr, Via: via, LocalizeTime: elapsed,
		})
	}
	for _, node := range v.Net.Nodes() {
		if inputDiff[node.ID] {
			continue
		}
		if attr, ok := outputDiff[node.ID]; ok {
			addRoot(node.ID, attr, "update-log")
		}
		if attr, ok := ribDiff[node.ID]; ok {
			addRoot(node.ID, attr, "ext-rib")
		}
	}
	// Fallback: everything diverging also has diverging inputs (e.g. the
	// announcer itself differs) — report the first diverging node.
	if len(out) == 0 && (len(ribDiff) > 0 || len(updateDiffs) > 0) {
		for _, node := range v.Net.Nodes() {
			if attr, ok := ribDiff[node.ID]; ok {
				addRoot(node.ID, attr, "ext-rib")
				break
			}
		}
		if len(out) == 0 {
			d := updateDiffs[0]
			addRoot(d.from, d.attr, "update-log")
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out, nil
}

// sessionPairs lists the sessions of the simulator that made res. Its
// run built the session base, so SessionList cannot fail here.
func sessionPairs(res *core.Result) []core.SessionInfo {
	sessions, _ := res.Sim.SessionList()
	return sessions
}

func vendorOf(net *topo.Network, snap config.Snapshot, n topo.NodeID) string {
	node := net.Node(n)
	if cfg, ok := snap[node.Name]; ok && cfg.Vendor != "" {
		return cfg.Vendor
	}
	return node.Vendor
}

// mismatchCount is the tuner's objective: the total number of routes that
// fail to pair between model and production across ext-RIBs and update
// logs, summed over the prefix set. Counting routes (not mismatch sites)
// lets the patch search see progress when one of several co-located VSBs
// is fixed.
func (v *Validator) mismatchCount(prefixes []netaddr.Prefix) (int, error) {
	total := 0
	for _, p := range prefixes {
		model, err := v.modelResult(p)
		if err != nil {
			return 0, err
		}
		for _, node := range v.Net.Nodes() {
			oracleRIB, err := v.Oracle.PullExtRIB(node.ID, p)
			if err != nil {
				return 0, err
			}
			var oracleRoutes []route.Route
			for _, e := range oracleRIB.Entries {
				oracleRoutes = append(oracleRoutes, e.Route)
			}
			c, _ := diffEntryCount(activeRoutes(model, node.ID), oracleRoutes)
			total += c
		}
		for _, se := range sessionPairs(model) {
			oracleLog, err := v.Oracle.UpdateLog(se.From, se.To, p)
			if err != nil {
				return 0, err
			}
			entries, _ := model.SessionUpdates(se.From, se.To)
			var modelLog []route.Route
			for _, e := range entries {
				if model.Sim.F.Eval(e.Cond, nil) {
					modelLog = append(modelLog, e.Route)
				}
			}
			c, _ := diffEntryCount(modelLog, oracleLog)
			total += c
		}
	}
	return total, nil
}

// SuggestPatch searches the eight VSB switches of the mismatching device's
// vendor for the single patch that best reduces mismatches over the given
// prefixes. When cascading VSBs make the localization point to a
// downstream device of a different (already correct) vendor, the search
// widens to every vendor present on the network — the automated form of
// "developers find the corresponding configuration block and produce
// patches", with the widened search standing in for the human's broader
// look.
func (v *Validator) SuggestPatch(mis Mismatch, prefixes []netaddr.Prefix) (behavior.Patch, bool, error) {
	baseline, err := v.mismatchCount(prefixes)
	if err != nil {
		return behavior.Patch{}, false, err
	}
	vendorSets := [][]string{{mis.Vendor}}
	var all []string
	seen := map[string]bool{mis.Vendor: true}
	for _, node := range v.Net.Nodes() {
		vd := vendorOf(v.Net, v.Snap, node.ID)
		if !seen[vd] {
			seen[vd] = true
			all = append(all, vd)
		}
	}
	if len(all) > 0 {
		vendorSets = append(vendorSets, all)
	}
	for _, vendors := range vendorSets {
		best := behavior.Patch{}
		bestCount := baseline
		found := false
		for _, vendor := range vendors {
			current := v.Registry.Get(vendor)
			for _, vsb := range behavior.AllVSBs {
				cand := behavior.Patch{
					Vendor: vendor, VSB: vsb, Value: !current.Get(vsb),
					Note: fmt.Sprintf("localized at node %d attr %s via %s", mis.Node, mis.Attribute, mis.Via),
				}
				trial := v.Registry.Clone()
				trial.Apply(cand)
				saved := v.Registry
				v.Registry = trial
				count, err := v.mismatchCount(prefixes)
				v.Registry = saved
				if err != nil {
					return behavior.Patch{}, false, err
				}
				if count < bestCount {
					bestCount = count
					best = cand
					found = true
				}
			}
		}
		if found {
			return best, true, nil
		}
	}
	return behavior.Patch{}, false, nil
}

// Tune runs the full loop: validate → localize → patch until no mismatch
// remains or no patch helps. It returns the applied patches in order.
func (v *Validator) Tune(prefixes []netaddr.Prefix, maxRounds int) ([]behavior.Patch, error) {
	if maxRounds == 0 {
		maxRounds = 64
	}
	var applied []behavior.Patch
	for round := 0; round < maxRounds; round++ {
		var first *Mismatch
		for _, p := range prefixes {
			ms, err := v.ValidatePrefix(p)
			if err != nil {
				return applied, err
			}
			if len(ms) > 0 {
				first = &ms[0]
				break
			}
		}
		if first == nil {
			return applied, nil
		}
		patch, ok, err := v.SuggestPatch(*first, prefixes)
		if err != nil {
			return applied, err
		}
		if !ok {
			return applied, fmt.Errorf("tuner: no single patch reduces mismatches for %v", *first)
		}
		v.Registry.Apply(patch)
		applied = append(applied, patch)
	}
	return applied, fmt.Errorf("tuner: did not converge within %d rounds", maxRounds)
}

// Accuracy computes the per-prefix verification accuracy of the current
// model: the fraction of devices whose ext-RIB matches production — the
// metric of Figure 14.
func (v *Validator) Accuracy(prefixes []netaddr.Prefix) (map[netaddr.Prefix]float64, error) {
	out := map[netaddr.Prefix]float64{}
	for _, p := range prefixes {
		model, err := v.modelResult(p)
		if err != nil {
			return nil, err
		}
		matching := 0
		for _, node := range v.Net.Nodes() {
			oracleRIB, err := v.Oracle.PullExtRIB(node.ID, p)
			if err != nil {
				return nil, err
			}
			var oracleRoutes []route.Route
			for _, e := range oracleRIB.Entries {
				oracleRoutes = append(oracleRoutes, e.Route)
			}
			if diffEntryLists(activeRoutes(model, node.ID), oracleRoutes) == "" {
				matching++
			}
		}
		out[p] = float64(matching) / float64(v.Net.NumNodes())
	}
	return out, nil
}

// CoveragePrefixes greedily selects up to target prefixes whose
// propagation covers the most configuration blocks (§6 "scalability of
// model validation": validate all cases production exercises without
// tracing every prefix).
func CoveragePrefixes(m *core.Model, opts core.Options, target int) ([]netaddr.Prefix, error) {
	all := m.AnnouncedPrefixes()
	if target <= 0 || target >= len(all) {
		return all, nil
	}
	sim := core.NewSimulator(m, opts)
	cover := make([]map[string]bool, len(all))
	for i, p := range all {
		res, err := sim.Run(p)
		if err != nil {
			return nil, err
		}
		blocks := map[string]bool{}
		for _, node := range m.Net.Nodes() {
			if len(res.ActiveEntries(node.ID, nil)) > 0 {
				blocks[node.Name+"/bgp"] = true
			}
		}
		for _, se := range sessionPairs(res) {
			if ups, _ := res.SessionUpdates(se.From, se.To); len(ups) > 0 {
				blocks[m.Net.Node(se.From).Name+"/neighbor/"+m.Net.Node(se.To).Name] = true
			}
		}
		cover[i] = blocks
	}
	covered := map[string]bool{}
	var chosen []netaddr.Prefix
	used := make([]bool, len(all))
	for len(chosen) < target {
		bestIdx, bestGain := -1, 0
		for i := range all {
			if used[i] {
				continue
			}
			gain := 0
			for b := range cover[i] {
				if !covered[b] {
					gain++
				}
			}
			if gain > bestGain {
				bestGain, bestIdx = gain, i
			}
		}
		if bestIdx < 0 {
			break
		}
		used[bestIdx] = true
		chosen = append(chosen, all[bestIdx])
		for b := range cover[bestIdx] {
			covered[b] = true
		}
	}
	return chosen, nil
}
