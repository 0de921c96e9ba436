package bench

import (
	"fmt"
	"time"

	"hoyan/internal/behavior"
	"hoyan/internal/core"
	"hoyan/internal/gen"
)

// Ablations measures the design choices DESIGN.md calls out: pruning
// on/off and condition simplification on/off, on one preset.
func Ablations(params gen.Params, limit int) (Table, error) {
	w, err := gen.Generate(params)
	if err != nil {
		return Table{}, err
	}
	m, err := core.Assemble(w.Net, w.Snap, behavior.TrueProfiles())
	if err != nil {
		return Table{}, err
	}
	prefixes := w.Prefixes()
	if limit > 0 && limit < len(prefixes) {
		prefixes = prefixes[:limit]
	}
	run := func(opts core.Options) (time.Duration, int, int, error) {
		start := time.Now() // the variant's IS-IS memo build included
		sim := core.NewSimulator(m, opts)
		maxCond := 0
		branches := 0
		for _, p := range prefixes {
			res, err := sim.Run(p)
			if err != nil {
				return 0, 0, 0, err
			}
			if res.Stats.MaxCondLen > maxCond {
				maxCond = res.Stats.MaxCondLen
			}
			branches += res.Stats.Branches
		}
		return time.Since(start), maxCond, branches, nil
	}

	variants := []struct {
		name string
		mod  func(*core.Options)
	}{
		{"baseline (all §5.6 optimizations)", func(o *core.Options) {}},
		{"no >k prune", func(o *core.Options) { o.PruneOverK = false }},
		{"no impossible prune", func(o *core.Options) { o.PruneImpossible = false }},
		{"no simplification", func(o *core.Options) { o.Simplify = false }},
		{"no pruning at all", func(o *core.Options) {
			o.PruneOverK = false
			o.PruneImpossible = false
		}},
	}
	t := Table{
		Title:  fmt.Sprintf("Ablations — §5.6 optimizations on %d prefixes (k=3)", len(prefixes)),
		Header: []string{"variant", "time", "max cond len", "branches"},
	}
	for _, va := range variants {
		opts := core.DefaultOptions()
		va.mod(&opts)
		d, mc, br, err := run(opts)
		if err != nil {
			return t, err
		}
		t.Rows = append(t.Rows, []string{va.name, fmtDur(d), fmt.Sprint(mc), fmt.Sprint(br)})
	}
	return t, nil
}
