package config

import (
	"fmt"
	"maps"
	"strings"
)

// Update is an incremental configuration change for one device: the raw
// command lines an operator would type. Lines use the same dialect as full
// configurations, plus a "no " prefix that removes matching statements —
// the template mechanism §9 describes for mapping operator-input command
// lines onto full snapshots.
type Update struct {
	Device string
	Lines  []string
}

// ApplyUpdate merges an incremental update into a snapshot, returning the
// new target configuration (the input is not modified). This implements
// the frontend step of Figure 2: online configuration + proposed change →
// target configuration.
func ApplyUpdate(snapshot *Device, up Update) (*Device, error) {
	target := snapshot.Clone()
	var adds []string
	// Separate removal lines, apply them structurally, batch the rest
	// through the parser on top of the serialized snapshot.
	var ctx string // current block header for removals inside blocks
	for _, raw := range up.Lines {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "!") || strings.HasPrefix(line, "#") {
			continue
		}
		if strings.HasPrefix(line, "no ") {
			if err := applyRemoval(target, ctx, strings.TrimPrefix(line, "no ")); err != nil {
				return nil, err
			}
			continue
		}
		f := strings.Fields(line)
		if topLevel[f[0]] {
			ctx = f[0]
			if f[0] == "router" && len(f) > 1 {
				ctx = "router " + f[1]
			}
		}
		adds = append(adds, line)
	}
	// Additions: re-parse snapshot text followed by the addition lines.
	// The parser treats repeated statements idempotently (maps and
	// neighbor lookups), so this merges rather than duplicates.
	merged := Write(target) + "\n" + strings.Join(adds, "\n")
	out, err := Parse(merged)
	if err != nil {
		return nil, fmt.Errorf("config: applying update to %s: %w", up.Device, err)
	}
	return out, nil
}

// applyRemoval handles a "no ..." line structurally.
func applyRemoval(d *Device, ctx, stmt string) error {
	f := strings.Fields(stmt)
	if len(f) == 0 {
		return fmt.Errorf("config: empty removal")
	}
	switch f[0] {
	case "neighbor":
		if d.BGP == nil || len(f) < 2 {
			return fmt.Errorf("config: no neighbor needs a peer and a bgp process")
		}
		if len(f) == 2 {
			if !d.BGP.RemoveNeighbor(f[1]) {
				return fmt.Errorf("config: no such neighbor %q", f[1])
			}
			return nil
		}
		// Attribute-level removal: "no neighbor r2 next-hop-self" etc.
		n, ok := d.BGP.FindNeighbor(f[1])
		if !ok {
			return fmt.Errorf("config: no such neighbor %q", f[1])
		}
		switch f[2] {
		case "next-hop-self":
			n.NextHopSelf = false
		case "route-reflector-client":
			n.RouteReflectorClient = false
		case "remove-private-as":
			n.RemovePrivateAS = false
		case "vpn":
			n.VPN = false
		case "allowas-in":
			n.AllowASIn = 0
		case "preference":
			n.Preference = 0
		case "route-policy":
			if len(f) == 5 && f[4] == "in" {
				n.InPolicy = ""
			} else if len(f) == 5 && f[4] == "out" {
				n.OutPolicy = ""
			} else {
				return fmt.Errorf("config: no neighbor route-policy wants NAME in|out")
			}
		default:
			return fmt.Errorf("config: cannot remove neighbor attribute %q", f[2])
		}
	case "network":
		if d.BGP == nil || len(f) != 2 {
			return fmt.Errorf("config: no network wants PREFIX")
		}
		p, err := parseAnyPrefix(f[1])
		if err != nil {
			return err
		}
		for i, n := range d.BGP.Networks {
			if n == p {
				d.BGP.Networks = append(d.BGP.Networks[:i], d.BGP.Networks[i+1:]...)
				return nil
			}
		}
		return fmt.Errorf("config: no such network %s", p)
	case "ip":
		if len(f) >= 3 && f[1] == "route" {
			p, err := parseAnyPrefix(f[2])
			if err != nil {
				return err
			}
			for i, sr := range d.Statics {
				if sr.Prefix == p && (len(f) < 4 || sr.NextHop == f[3]) {
					d.Statics = append(d.Statics[:i], d.Statics[i+1:]...)
					return nil
				}
			}
			return fmt.Errorf("config: no such static route %s", p)
		}
		return fmt.Errorf("config: unsupported removal %q", stmt)
	case "route-policy":
		if len(f) != 2 {
			return fmt.Errorf("config: no route-policy wants NAME")
		}
		if _, ok := d.RoutePolicies[f[1]]; !ok {
			return fmt.Errorf("config: no such route-policy %q", f[1])
		}
		delete(d.RoutePolicies, f[1])
	case "access-list":
		if len(f) != 2 {
			return fmt.Errorf("config: no access-list wants NAME")
		}
		if _, ok := d.ACLs[f[1]]; !ok {
			return fmt.Errorf("config: no such access-list %q", f[1])
		}
		delete(d.ACLs, f[1])
		for key, name := range d.InterfaceACLs {
			if name == f[1] {
				delete(d.InterfaceACLs, key)
			}
		}
	case "redistribute":
		if d.BGP == nil || len(f) != 2 {
			return fmt.Errorf("config: no redistribute wants PROTO")
		}
		for i, r := range d.BGP.Redistribute {
			if r.From == f[1] {
				d.BGP.Redistribute = append(d.BGP.Redistribute[:i], d.BGP.Redistribute[i+1:]...)
				return nil
			}
		}
		return fmt.Errorf("config: no such redistribution %q", f[1])
	default:
		return fmt.Errorf("config: unsupported removal %q", stmt)
	}
	return nil
}

// Snapshot is the configuration of a whole network keyed by device name,
// plus helpers to apply a batch of updates atomically. The devices it
// holds are immutable (see Device): two snapshots may share a *Device,
// and a change to one router replaces that router's entry.
type Snapshot map[string]*Device

// Apply returns a new snapshot with all updates applied; the receiver is
// unchanged. The result shares every device no update names with the
// receiver and holds a new device for each one an update names. Unknown
// devices are an error (updates target existing routers).
func (s Snapshot) Apply(ups []Update) (Snapshot, error) {
	out := maps.Clone(s)
	for _, up := range ups {
		dev, ok := out[up.Device]
		if !ok {
			return nil, fmt.Errorf("config: update targets unknown device %q", up.Device)
		}
		nd, err := ApplyUpdate(dev, up)
		if err != nil {
			return nil, err
		}
		out[up.Device] = nd
	}
	return out, nil
}
