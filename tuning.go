package hoyan

import (
	"fmt"

	"hoyan/internal/behavior"
	"hoyan/internal/core"
	"hoyan/internal/netaddr"
	"hoyan/internal/tuner"
)

// Tuner wraps the behavior-model tuner (§6): it compares the verifier's
// computed routes against a ground-truth network and patches the vendor
// behavior registry until they agree.
//
// In production the ground truth is the live WAN's RIB/BMP feeds; here it
// is an emulated network running the vendors' true behaviors (see
// DESIGN.md's substitution table).
type Tuner struct {
	v        *tuner.Validator
	prefixes []netaddr.Prefix
}

// NewTuner builds a tuner for the network, starting from the given model
// registry (typically NaiveProfiles()). The registry is patched in place
// as VSBs are discovered.
func (n *Network) NewTuner(reg *behavior.Registry) (*Tuner, error) {
	m, err := n.assemble(Options{}, behavior.TrueProfiles(), nil)
	if err != nil {
		return nil, err
	}
	// The tuner holds the topology and the configuration map too.
	n.share()
	v, err := tuner.New(n.net, n.snap, reg, core.DefaultOptions())
	if err != nil {
		return nil, err
	}
	// Coverage selection (§6): a moderate prefix set covering most
	// configuration blocks.
	target := min(len(m.AnnouncedPrefixes()), 16)
	prefixes, err := tuner.CoveragePrefixes(m, core.DefaultOptions(), target)
	if err != nil {
		return nil, err
	}
	return &Tuner{v: v, prefixes: prefixes}, nil
}

// Mismatches validates the coverage prefixes and returns human-readable
// localized root causes.
func (t *Tuner) Mismatches() ([]string, error) {
	var out []string
	for _, p := range t.prefixes {
		ms, err := t.v.ValidatePrefix(p)
		if err != nil {
			return nil, err
		}
		for _, m := range ms {
			out = append(out, m.String())
		}
	}
	return out, nil
}

// Run tunes until the model matches the ground truth, returning the
// applied patches.
func (t *Tuner) Run(maxRounds int) ([]string, error) {
	patches, err := t.v.Tune(t.prefixes, maxRounds)
	var out []string
	for _, p := range patches {
		out = append(out, p.String())
	}
	return out, err
}

// Accuracy returns the per-prefix verification accuracy of the current
// model (Figure 14's metric).
func (t *Tuner) Accuracy() (map[string]float64, error) {
	acc, err := t.v.Accuracy(t.prefixes)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for p, a := range acc {
		out[p.String()] = a
	}
	return out, nil
}

// CoveragePrefixes reports the prefixes the tuner validates.
func (t *Tuner) CoveragePrefixes() []string {
	var out []string
	for _, p := range t.prefixes {
		out = append(out, p.String())
	}
	return out
}

// String implements fmt.Stringer for diagnostics.
func (t *Tuner) String() string {
	return fmt.Sprintf("tuner over %d coverage prefixes", len(t.prefixes))
}
