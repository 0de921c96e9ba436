package hoyan

import (
	"slices"

	"hoyan/internal/core"
	"hoyan/internal/dist"
)

// ModularStats reports what a modular sweep actually did — including,
// loudly, every fallback to monolithic simulation (DESIGN.md, "Modular
// verification": refusal is part of the soundness argument, so it is
// never silent).
type ModularStats struct {
	// Regions is the size of the partition the sweep cut the model into.
	Regions int
	// Passes counts restricted region passes executed (home + import).
	Passes int
	// Refused counts units (class representatives, audit members) that
	// fell back to monolithic simulation because a cut could not soundly
	// express their behavior. A replay audit runs monolithic from the
	// start: it is compared with a record a monolithic pass made.
	Refused int
	// Fallback is set when the whole sweep ran monolithically because no
	// usable partition exists (region-less BGP speakers, or one region).
	Fallback bool
	// Notes records the refusal reasons (deduplicated, in first-seen order).
	Notes []string
}

func (ms *ModularStats) note(reason string) {
	if !slices.Contains(ms.Notes, reason) {
		ms.Notes = append(ms.Notes, reason)
	}
}

// planModular derives the modular half of a sweep plan: the partition's
// region names and each class's home region ("" for a family no single
// region originates — the class runs monolithically, loudly). A model
// with no usable cut yields no regions at all: the whole sweep falls
// back to monolithic passes.
func planModular(model *core.Model, classes []core.PrefixClass) (ms *ModularStats, regions, homes []string) {
	ms = &ModularStats{}
	pt, err := model.Partition()
	if err != nil {
		ms.Fallback = true
		ms.note(err.Error())
		return ms, nil, nil
	}
	ms.Regions = pt.NumRegions()
	for r := 0; r < pt.NumRegions(); r++ {
		regions = append(regions, pt.RegionName(r))
	}
	homes = make([]string, len(classes))
	for i, cls := range classes {
		if home, err := pt.FamilyHome(model, cls.Rep); err != nil {
			ms.note(err.Error())
		} else {
			homes[i] = regions[home]
		}
	}
	return ms, regions, homes
}

// settle records what the run made of the plan's cut: the passes it
// took and every unit that fell back, with the reason.
func (ms *ModularStats) settle(plan *dist.Plan, res *dist.Result) {
	ms.Passes, ms.Refused = res.ModularPasses, res.ModularRefused
	if ms.Fallback {
		ms.Refused = res.Classes + len(res.Audits)
	}
	for _, c := range plan.Classes {
		if c.Home == "" {
			continue // refused by the plan, noted when it was built
		}
		for _, p := range append(c.Members[:1:1], c.Audit...) {
			if why := res.Refusals[p]; why != "" {
				ms.note(why)
			}
		}
	}
}
