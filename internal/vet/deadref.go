package vet

import (
	"hoyan/internal/config"
)

// DeadRefAnalyzer flags reference hygiene defects in both directions:
// objects defined but never attached anywhere (a prefix-list no policy
// term names, a route-policy no neighbor or redistribution applies, an
// access-list no interface binds — dead weight that usually means a
// typo elsewhere), and attachments naming objects that do not exist
// (which config.Validate rejects at parse time but programmatic
// snapshot edits can still introduce). The config dialect has no
// standalone community-list object — communities are matched inline in
// terms — so the definable object kinds are prefix-lists,
// route-policies and access-lists.
var DeadRefAnalyzer = &Analyzer{
	Name: "deadref",
	Code: "V002",
	Doc:  "flags defined-but-unattached policy objects and attachments naming undefined objects",
	Run:  runDeadRef,
}

func runDeadRef(p *Pass) error {
	for _, node := range p.Model.Net.Nodes() {
		cfg := p.Model.Configs[node.ID]
		checkUnattached(p, node.Name, cfg)
		checkDangling(p, node.Name, cfg)
	}
	return nil
}

func checkUnattached(p *Pass, dev string, cfg *config.Device) {
	usedPL := map[string]bool{}
	for _, rp := range cfg.RoutePolicies {
		for _, t := range rp.Terms {
			if t.Match.PrefixList != nil && t.Match.PrefixList.Name != "" {
				usedPL[t.Match.PrefixList.Name] = true
			}
		}
	}
	usedACL := map[string]bool{}
	for _, name := range cfg.InterfaceACLs {
		usedACL[name] = true
	}
	for _, name := range sortedKeys(cfg.PrefixLists) {
		if !usedPL[name] {
			p.Reportf(dev, "prefix-list/"+name, SevWarn,
				"prefix-list %s is defined but no route-policy term matches on it", name)
		}
	}
	for _, name := range sortedKeys(cfg.RoutePolicies) {
		if !cfg.PolicyInUse(name) {
			p.Reportf(dev, "route-policy/"+name, SevWarn,
				"route-policy %s is defined but attached to no neighbor or redistribution", name)
		}
	}
	for _, name := range sortedKeys(cfg.ACLs) {
		if !usedACL[name] {
			p.Reportf(dev, "access-list/"+name, SevWarn,
				"access-list %s is defined but bound to no interface", name)
		}
	}
}

func checkDangling(p *Pass, dev string, cfg *config.Device) {
	if cfg.BGP != nil {
		for _, n := range cfg.BGP.Neighbors {
			for _, pn := range []string{n.InPolicy, n.OutPolicy} {
				if pn != "" {
					if _, ok := cfg.RoutePolicies[pn]; !ok {
						p.Reportf(dev, "neighbor/"+n.PeerName, SevError,
							"neighbor %s applies route-policy %s, which is not defined", n.PeerName, pn)
					}
				}
			}
		}
		for _, r := range cfg.BGP.Redistribute {
			if r.Policy != "" {
				if _, ok := cfg.RoutePolicies[r.Policy]; !ok {
					p.Reportf(dev, "redistribute/"+r.From, SevError,
						"redistribute %s filters through route-policy %s, which is not defined", r.From, r.Policy)
				}
			}
		}
	}
	for _, name := range sortedKeys(cfg.RoutePolicies) {
		rp := cfg.RoutePolicies[name]
		for _, t := range rp.Terms {
			if t.Match.PrefixList != nil && t.Match.PrefixList.Name != "" {
				if _, ok := cfg.PrefixLists[t.Match.PrefixList.Name]; !ok {
					p.Reportf(dev, "route-policy/"+name, SevError,
						"term %d matches prefix-list %s, which is not defined", t.Seq, t.Match.PrefixList.Name)
				}
			}
		}
	}
	for _, key := range sortedKeys(cfg.InterfaceACLs) {
		name := cfg.InterfaceACLs[key]
		if _, ok := cfg.ACLs[name]; !ok {
			p.Reportf(dev, "access-list/"+name, SevError,
				"interface binding %s references access-list %s, which is not defined", key, name)
		}
	}
}
