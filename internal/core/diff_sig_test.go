package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"hoyan/internal/config"
	"hoyan/internal/gen"
	"hoyan/internal/netaddr"
	"hoyan/internal/policy"
	"hoyan/internal/route"
)

// relevantTermSig is the per-prefix signature diffPolicies compared
// before it formatted each term once: the terms of pol that can fire on
// a route for p, in evaluation order, each formatted anew.
func relevantTermSig(pol *policy.RoutePolicy, p netaddr.Prefix) string {
	var b strings.Builder
	for _, t := range pol.Terms {
		if t.Match.PrefixList != nil && !t.Match.PrefixList.Permits(p) {
			continue
		}
		writeTermSig(&b, t)
	}
	return b.String()
}

// referencePolicyDelta is diffPolicies and diffPrefixLists as they were
// before the cached term signatures and the slices.Equal rule compare:
// relevantTermSig per candidate prefix and fmt.Sprint of the rules.
func referencePolicyDelta(oc, nc *config.Device, name string, cand []netaddr.Prefix) []DeltaItem {
	d := &ModelDelta{}
	names := map[string]bool{}
	for n := range oc.RoutePolicies {
		names[n] = true
	}
	for n := range nc.RoutePolicies {
		names[n] = true
	}
	for _, pn := range sortedKeys(names) {
		op, ohas := oc.RoutePolicies[pn]
		np, nhas := nc.RoutePolicies[pn]
		switch {
		case !oc.PolicyInUse(pn) && !nc.PolicyInUse(pn):
			kind := DeltaPolicyChanged
			switch {
			case !nhas:
				kind = DeltaPolicyRemoved
			case !ohas:
				kind = DeltaPolicyAdded
			case op == np || policySig(op) == policySig(np):
				continue
			}
			d.add(DeltaItem{Kind: kind, Device: name,
				Detail: pn + " is named by no neighbor or redistribution"})
		case ohas && !nhas:
			d.add(DeltaItem{Kind: DeltaPolicyRemoved, Device: name, AllPrefixes: true, Detail: pn})
		case !ohas && nhas:
			d.add(DeltaItem{Kind: DeltaPolicyAdded, Device: name, AllPrefixes: true, Detail: pn})
		default:
			var affected []netaddr.Prefix
			for _, p := range cand {
				if relevantTermSig(op, p) != relevantTermSig(np, p) {
					affected = append(affected, p)
				}
			}
			if len(affected) > 0 {
				d.add(DeltaItem{Kind: DeltaPolicyChanged, Device: name, Prefixes: affected,
					Detail: fmt.Sprintf("%s treats %d candidate prefixes differently", pn, len(affected))})
			}
		}
	}
	lists := map[string]bool{}
	for n := range oc.PrefixLists {
		lists[n] = true
	}
	for n := range nc.PrefixLists {
		lists[n] = true
	}
	for _, ln := range sortedKeys(lists) {
		ol, ohas := oc.PrefixLists[ln]
		nl, nhas := nc.PrefixLists[ln]
		switch {
		case ohas != nhas:
			d.add(DeltaItem{Kind: DeltaPrefixListChanged, Device: name,
				Detail: ln + " added/removed (inert unless a policy references it)"})
		case fmt.Sprint(ol.Rules) != fmt.Sprint(nl.Rules):
			var affected []netaddr.Prefix
			for _, p := range cand {
				if ol.Permits(p) != nl.Permits(p) {
					affected = append(affected, p)
				}
			}
			d.add(DeltaItem{Kind: DeltaPrefixListChanged, Device: name, Prefixes: affected,
				Detail: fmt.Sprintf("%s flips %d candidate prefixes", ln, len(affected))})
		}
	}
	return d.Items
}

// cloneDevice returns an independent copy of d, re-parsed from its
// canonical text.
func cloneDevice(t *testing.T, d *config.Device) *config.Device {
	t.Helper()
	c, err := config.Parse(config.Write(d))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// mutatePolicies makes one random edit to a route-policy term or a
// prefix-list rule of d, drawing prefixes from cand.
func mutatePolicies(rng *rand.Rand, d *config.Device, cand []netaddr.Prefix) {
	pick := func(p netaddr.Prefix) netaddr.Prefix {
		if rng.Intn(3) == 0 {
			return netaddr.Make(p.Addr, uint8(8+rng.Intn(17))) // a supernet or the prefix
		}
		return p
	}
	rule := func() policy.PrefixRule {
		r := policy.PrefixRule{Action: policy.Permit, Prefix: pick(cand[rng.Intn(len(cand))])}
		if rng.Intn(4) == 0 {
			r.Action = policy.Deny
		}
		if rng.Intn(2) == 0 {
			r.GE, r.LE = r.Prefix.Len, uint8(min(32, int(r.Prefix.Len)+rng.Intn(9)))
		}
		return r
	}
	pols := sortedKeys(d.RoutePolicies)
	lists := sortedKeys(d.PrefixLists)
	var pol *policy.RoutePolicy
	if len(pols) > 0 {
		pol = d.RoutePolicies[pols[rng.Intn(len(pols))]]
	}
	switch op := rng.Intn(10); {
	case op < 4 && len(lists) > 0:
		pl := d.PrefixLists[lists[rng.Intn(len(lists))]]
		switch i := rng.Intn(len(pl.Rules) + 1); {
		case i == len(pl.Rules) || rng.Intn(3) == 0:
			pl.Rules = append(pl.Rules, rule())
		case rng.Intn(2) == 0:
			pl.Rules = append(pl.Rules[:i:i], pl.Rules[i+1:]...)
		default:
			pl.Rules[i] = rule()
		}
	case pol == nil || len(pol.Terms) == 0:
		return
	case op < 5:
		// A new prefix-list-matched term at a random position.
		pl := &policy.PrefixList{Name: fmt.Sprintf("MUT%d", len(d.PrefixLists)), Rules: []policy.PrefixRule{rule(), rule()}}
		d.PrefixLists[pl.Name] = pl
		lp := uint32(100 + rng.Intn(100))
		term := policy.Term{Seq: rng.Intn(50), Action: policy.Permit,
			Match: policy.Match{PrefixList: pl}, Set: policy.Set{LocalPref: &lp}}
		i := rng.Intn(len(pol.Terms) + 1)
		pol.Terms = append(pol.Terms[:i:i], append([]policy.Term{term}, pol.Terms[i:]...)...)
	default:
		i := rng.Intn(len(pol.Terms))
		t := &pol.Terms[i]
		switch rng.Intn(7) {
		case 0:
			t.Action = 1 - t.Action
		case 1:
			lp := uint32(rng.Intn(300))
			t.Set.LocalPref = &lp
		case 2:
			t.Match.Community = route.Community(rng.Intn(3) * 920)
		case 3:
			t.Set.AddComms = append(t.Set.AddComms[:len(t.Set.AddComms):len(t.Set.AddComms)], route.Community(rng.Intn(1000)))
		case 4:
			t.Seq += 1 + rng.Intn(3)
		case 5:
			if len(lists) > 0 {
				t.Match.PrefixList = d.PrefixLists[lists[rng.Intn(len(lists))]]
			} else {
				t.Match.PrefixList = nil
			}
		default:
			pol.Terms = append(pol.Terms[:i:i], pol.Terms[i+1:]...)
		}
	}
}

// TestPolicyDiffMatchesPerPrefixSignature pins diffPolicies' cached term
// signatures and diffPrefixLists' rule compare to the per-prefix
// formatting they replaced: on gen.Small and gen.Medium, under
// gen.Perturb's policy edits and random term and rule mutations, the
// delta items, prefix sets included, equal referencePolicyDelta's.
func TestPolicyDiffMatchesPerPrefixSignature(t *testing.T) {
	small := gen.Small()
	small.PolicyDiversity = 2
	for _, tc := range []struct {
		name   string
		params gen.Params
	}{{"small", gen.Small()}, {"small-buckets", small}, {"medium", gen.Medium()}} {
		t.Run(tc.name, func(t *testing.T) {
			w := generate(t, tc.params)
			m := assembleWAN(t, w)
			cand := candidatePrefixes(m, m)
			// Supernets and subnets of the candidates make rules that cover
			// several of them or none.
			rng := rand.New(rand.NewSource(47))
			wide := append([]netaddr.Prefix(nil), cand...)
			for range len(cand) {
				p := cand[rng.Intn(len(cand))]
				wide = append(wide, netaddr.Make(p.Addr|uint32(rng.Intn(256)), uint8(16+rng.Intn(17))))
			}
			sortPrefixes(wide)

			scoped, items := 0, 0
			check := func(label, name string, oc, nc *config.Device, cand []netaddr.Prefix) {
				t.Helper()
				got := &ModelDelta{}
				diffPolicies(oc, nc, name, cand, got)
				diffPrefixLists(oc, nc, name, cand, got)
				want := referencePolicyDelta(oc, nc, name, cand)
				if !reflect.DeepEqual(got.Items, want) {
					t.Fatalf("%s: delta\n%v\nreference\n%v", label, got.Items, want)
				}
				for _, it := range want {
					items++
					if len(it.Prefixes) > 0 {
						scoped++
					}
				}
			}

			for _, p := range gen.Perturb(w, 5, 12) {
				if p.Kind != "policy" {
					continue
				}
				edited, err := w.Snap.Apply([]config.Update{{Device: p.Device, Lines: p.Lines}})
				if err != nil {
					t.Fatal(err)
				}
				check(p.Description, p.Device, w.Snap[p.Device], edited[p.Device], cand)
			}

			devices := sortedKeys(w.Snap)
			for i := range 300 {
				name := devices[rng.Intn(len(devices))]
				oc := w.Snap[name]
				nc := cloneDevice(t, oc)
				for range 1 + rng.Intn(3) {
					mutatePolicies(rng, nc, wide)
				}
				check(fmt.Sprintf("mutation %d of %s", i, name), name, oc, nc, wide)
			}
			t.Logf("%d delta items, %d with a prefix set", items, scoped)
			if scoped == 0 || scoped == items {
				t.Fatalf("%d of %d delta items carried a prefix set: the mutations exercised too little", scoped, items)
			}
		})
	}
}
