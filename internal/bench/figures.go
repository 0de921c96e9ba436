package bench

import (
	"fmt"
	"time"

	"hoyan/internal/behavior"
	"hoyan/internal/core"
	"hoyan/internal/dataplane"
	"hoyan/internal/gen"
	"hoyan/internal/netaddr"
	"hoyan/internal/racing"
	"hoyan/internal/topo"
	"hoyan/internal/tuner"
)

// Fig7Campaign reproduces Figure 7: a multi-month update campaign with
// injected misconfigurations; each month's batch is verified and the
// detected error count reported next to the injected ground truth.
func Fig7Campaign(params gen.Params, months int) (Table, error) {
	w, err := gen.Generate(params)
	if err != nil {
		return Table{}, err
	}
	campaign := w.Campaign(months)
	t := Table{
		Title:  fmt.Sprintf("Figure 7 — configuration errors found per month (%d months)", months),
		Header: []string{"month", "updates", "injected", "detected", "kinds"},
	}
	totalInjected, totalDetected := 0, 0
	for _, cm := range campaign {
		detected := 0
		kinds := ""
		for _, f := range cm.Faults {
			ok, err := detectFault(w, f)
			if err != nil {
				return t, err
			}
			if ok {
				detected++
				kinds += string(f.Kind[0])
			} else {
				kinds += "."
			}
		}
		totalInjected += len(cm.Faults)
		totalDetected += detected
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(cm.Month), fmt.Sprint(len(cm.Updates)),
			fmt.Sprint(len(cm.Faults)), fmt.Sprint(detected), kinds,
		})
	}
	t.Notes = append(t.Notes, fmt.Sprintf("total: %d injected, %d detected (%.1f%%)",
		totalInjected, totalDetected, 100*float64(totalDetected)/float64(max(1, totalInjected))))
	return t, nil
}

// detectFault runs the verification signal appropriate to a fault class —
// the checks an operator would run before committing the update.
func detectFault(w *gen.WAN, f gen.Fault) (bool, error) {
	snap, err := w.Snap.Apply(f.Updates)
	if err != nil {
		return false, err
	}
	m, err := core.Assemble(w.Net, snap, behavior.TrueProfiles())
	if err != nil {
		return false, err
	}
	switch f.Kind {
	case gen.FaultStaticPref:
		// Update checking: the best-route protocol at the updated PE must
		// not silently change class.
		// Establish the intended state (prep only).
		prepSnap, err := w.Snap.Apply(f.Updates[:1])
		if err != nil {
			return false, err
		}
		before, err := core.Assemble(w.Net, prepSnap, behavior.TrueProfiles())
		if err != nil {
			return false, err
		}
		pe, _ := m.Resolve(f.Nodes[0])
		resB, err := core.NewSimulator(before, core.DefaultOptions()).Run(f.Prefix)
		if err != nil {
			return false, err
		}
		resA, err := core.NewSimulator(m, core.DefaultOptions()).Run(f.Prefix)
		if err != nil {
			return false, err
		}
		b, okB := resB.BestUnder(pe, f.Prefix, nil)
		a, okA := resA.BestUnder(pe, f.Prefix, nil)
		return okB && okA && b.Protocol != a.Protocol, nil
	case gen.FaultRacing:
		sim := core.NewSimulator(m, core.DefaultOptions())
		rep, err := racing.Detect(sim, f.Prefix, racing.DefaultOptions())
		if err != nil {
			return false, err
		}
		return rep.Ambiguous, nil
	case gen.FaultIPConflict:
		return len(m.AnnouncersOf(f.Prefix)) > 1, nil
	case gen.FaultRoleDrift:
		drifted, _ := m.Resolve(f.Nodes[0])
		var twin topo.NodeID = topo.NoNode
		for _, members := range w.Net.NodeGroups() {
			for i, mem := range members {
				if mem == drifted {
					twin = members[(i+1)%len(members)]
				}
			}
		}
		if twin == topo.NoNode {
			return false, nil
		}
		sim := core.NewSimulator(m, core.DefaultOptions())
		for _, p := range w.Prefixes() {
			res, err := sim.Run(p)
			if err != nil {
				return false, err
			}
			if len(res.EquivalentRoles(drifted, twin)) > 0 {
				return true, nil
			}
		}
		return false, nil
	case gen.FaultACLBlock:
		sim := core.NewSimulator(m, core.DefaultOptions())
		res, err := sim.Run(f.Prefix)
		if err != nil {
			return false, err
		}
		fib := dataplane.Build(res)
		gw, _ := m.Resolve(w.PrefixOwners[f.Prefix])
		for _, name := range w.Cores {
			id, _ := m.Resolve(name)
			if fib.RouteVsPacketGap(id, f.Prefix, gw) {
				return true, nil
			}
		}
		return false, nil
	}
	return false, nil
}

// perPrefixTimes runs the full-WAN per-prefix pipeline and collects the
// samples behind Figures 8–13.
type perPrefixSamples struct {
	simulate   []time.Duration // Fig 8
	verify     []time.Duration // Fig 9
	turnaround []time.Duration // Fig 10
	maxCondLen []int           // Fig 11
	reachLen   []int           // Fig 13
	stats      core.Stats      // Fig 12 aggregate
}

func collectPerPrefix(params gen.Params, k int, limit int) (*perPrefixSamples, error) {
	w, err := gen.Generate(params)
	if err != nil {
		return nil, err
	}
	m, err := core.Assemble(w.Net, w.Snap, behavior.TrueProfiles())
	if err != nil {
		return nil, err
	}
	opts := core.DefaultOptions()
	opts.K = k
	// Shared path: assemble-once model plus the one-time IGP snapshot,
	// exactly what a sweep worker would get.
	sim := core.NewShared(m, opts).NewSimulator()
	prefixes := w.Prefixes()
	if limit > 0 && limit < len(prefixes) {
		prefixes = prefixes[:limit]
	}
	out := &perPrefixSamples{}
	for _, p := range prefixes {
		t0 := time.Now()
		res, err := sim.Run(p)
		if err != nil {
			return nil, err
		}
		simDur := time.Since(t0)

		t1 := time.Now()
		maxReach := 0
		for _, node := range m.Net.Nodes() {
			_, l := res.MinFailuresToLose(node.ID, core.AnyRouteTo(p))
			if l > maxReach {
				maxReach = l
			}
		}
		verDur := time.Since(t1)

		out.simulate = append(out.simulate, simDur)
		out.verify = append(out.verify, verDur)
		out.turnaround = append(out.turnaround, simDur+verDur)
		out.maxCondLen = append(out.maxCondLen, res.Stats.MaxCondLen)
		out.reachLen = append(out.reachLen, maxReach)
		out.stats.Branches += res.Stats.Branches
		out.stats.DroppedPolicy += res.Stats.DroppedPolicy
		out.stats.DroppedOverK += res.Stats.DroppedOverK
		out.stats.DroppedImpossible += res.Stats.DroppedImpossible
		out.stats.Delivered += res.Stats.Delivered
	}
	return out, nil
}

// Fig8to13 reproduces the per-prefix performance figures on one preset:
// Figure 8 (simulate), 9 (verify), 10 (turnaround), 11 (max condition
// length), 12 (pruning breakdown) and 13 (reachability formula length),
// for k = 0..3.
func Fig8to13(params gen.Params, limit int) (Table, error) {
	t := Table{
		Title:  "Figures 8–13 — per-prefix simulation/verification on the full WAN",
		Header: []string{"series", "p10", "p50", "p90", "p98", "max"},
	}
	for k := 0; k <= 3; k++ {
		s, err := collectPerPrefix(params, k, limit)
		if err != nil {
			return t, err
		}
		t.Rows = append(t.Rows, CDFRow(fmt.Sprintf("fig8 simulate k=%d", k), s.simulate))
		t.Rows = append(t.Rows, CDFRow(fmt.Sprintf("fig9 verify k=%d", k), s.verify))
		t.Rows = append(t.Rows, CDFRow(fmt.Sprintf("fig10 turnaround k=%d", k), s.turnaround))
		if k >= 1 {
			t.Rows = append(t.Rows, CDFIntRow(fmt.Sprintf("fig11 max-cond-len k=%d", k), s.maxCondLen))
			t.Rows = append(t.Rows, CDFIntRow(fmt.Sprintf("fig13 reach-formula-len k=%d", k), s.reachLen))
			st := s.stats
			total := max(1, st.Branches)
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("fig12 pruning k=%d", k),
				"remain " + fmtPct(float64(st.Delivered)/float64(total)),
				">k " + fmtPct(float64(st.DroppedOverK)/float64(total)),
				"impossible " + fmtPct(float64(st.DroppedImpossible)/float64(total)),
				"policy " + fmtPct(float64(st.DroppedPolicy)/float64(total)),
				"",
			})
		}
	}
	return t, nil
}

// Fig14Accuracy reproduces Figure 14: per-prefix verification accuracy
// before the tuner runs versus after.
func Fig14Accuracy(params gen.Params) (Table, error) {
	w, err := gen.Generate(params)
	if err != nil {
		return Table{}, err
	}
	v, err := tuner.New(w.Net, w.Snap, behavior.NaiveProfiles(), core.DefaultOptions())
	if err != nil {
		return Table{}, err
	}
	prefixes := w.Prefixes()
	before, err := v.Accuracy(prefixes)
	if err != nil {
		return Table{}, err
	}
	m, err := core.Assemble(w.Net, w.Snap, behavior.TrueProfiles())
	if err != nil {
		return Table{}, err
	}
	coverage, err := tuner.CoveragePrefixes(m, core.DefaultOptions(), 6)
	if err != nil {
		return Table{}, err
	}
	if _, err := v.Tune(coverage, 64); err != nil {
		return Table{}, err
	}
	after, err := v.Accuracy(prefixes)
	if err != nil {
		return Table{}, err
	}
	t := Table{
		Title:  "Figure 14 — per-prefix verification accuracy, pre-tuner vs after tuning",
		Header: []string{"series", "p10", "p50", "p90", "p98", "max"},
	}
	toPctSamples := func(acc map[netaddr.Prefix]float64) []int {
		var out []int
		for _, a := range acc {
			//lint:allow maporder CDFIntRow sorts the samples before computing percentiles
			out = append(out, int(a*100))
		}
		return out
	}
	t.Rows = append(t.Rows, CDFIntRow("accuracy%% pre-tuner", toPctSamples(before)))
	t.Rows = append(t.Rows, CDFIntRow("accuracy%% after tuning", toPctSamples(after)))
	full := 0
	for _, a := range after {
		if a == 1.0 {
			full++
		}
	}
	t.Notes = append(t.Notes, fmt.Sprintf("%d/%d prefixes at 100%% accuracy after tuning", full, len(after)))
	return t, nil
}

// Fig15and16Tuner reproduces Figures 15 and 16: ext-RIB pull latency and
// VSB localization time distributions.
func Fig15and16Tuner(params gen.Params) (Table, error) {
	w, err := gen.Generate(params)
	if err != nil {
		return Table{}, err
	}
	v, err := tuner.New(w.Net, w.Snap, behavior.NaiveProfiles(), core.DefaultOptions())
	if err != nil {
		return Table{}, err
	}
	var pulls []time.Duration
	var localize []time.Duration
	for _, p := range w.Prefixes() {
		for _, node := range w.Net.Nodes() {
			rib, err := v.Oracle.PullExtRIB(node.ID, p)
			if err != nil {
				return Table{}, err
			}
			pulls = append(pulls, rib.PullLatency)
		}
		ms, err := v.ValidatePrefix(p)
		if err != nil {
			return Table{}, err
		}
		for _, m := range ms {
			localize = append(localize, m.LocalizeTime)
		}
	}
	t := Table{
		Title:  "Figures 15/16 — ext-RIB loading and VSB localization time",
		Header: []string{"series", "p10", "p50", "p90", "p98", "max"},
	}
	t.Rows = append(t.Rows, CDFRow("fig15 ext-RIB pull", pulls))
	t.Rows = append(t.Rows, CDFRow("fig16 VSB localization", localize))
	return t, nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
