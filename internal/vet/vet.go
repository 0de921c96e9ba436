// Package vet is the static configuration-analysis plane: a
// go/analysis-style framework mirroring internal/lint's
// Pass/Analyzer/Diagnostic shape, but whose subject is an assembled
// core.Model (plus its topo/policy/config provenance) instead of Go
// source. Analyzers find the config defects operators actually ship —
// shadowed policy terms, dangling references, iBGP propagation holes,
// unresolvable static next-hops — and statically predict which prefix
// families modular verification will refuse, all in milliseconds and
// without running a single simulation.
//
// Severity encodes the contract with the exit-code and CI surfaces:
// SevError and SevWarn are findings (a vet run reporting any exits 1,
// like a sweep reporting violations); SevInfo diagnostics are advisory
// — most prominently cutsound's refusal predictions, where the
// configuration is correct but the modular schedule will decline — and
// never fail a run on their own.
package vet

import (
	"fmt"
	"sort"
	"strings"

	"hoyan/internal/core"
)

// Severity grades a diagnostic.
type Severity uint8

// Severities, ordered by weight.
const (
	// SevInfo is advisory: not a defect, but something the operator
	// wants to know before dispatching work (e.g. a predicted modular
	// refusal). Info diagnostics do not fail a vet run.
	SevInfo Severity = iota
	// SevWarn marks configuration that is legal but almost certainly
	// not what the author meant (dead terms, unattached objects,
	// asymmetric cut policies).
	SevWarn
	// SevError marks configuration that cannot work as written
	// (unresolvable references, unpropagatable routes).
	SevError
)

// String renders the severity for the text report.
func (s Severity) String() string {
	switch s {
	case SevInfo:
		return "info"
	case SevWarn:
		return "warn"
	case SevError:
		return "error"
	}
	return fmt.Sprintf("severity(%d)", uint8(s))
}

// MarshalText makes severities render as their names in JSON output.
func (s Severity) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// Diagnostic is one finding. Device and Object anchor it to the
// configuration: Object uses the same stable block identifiers as
// config.ConfigBlocks ("route-policy/TAG", "neighbor/gw-r0-0",
// "static/10.0.0.0/24", "prefix-list/ORPHAN"), so a suppression
// directive can name exactly the object it excuses.
type Diagnostic struct {
	Analyzer string   `json:"analyzer"`
	Code     string   `json:"code"`
	Device   string   `json:"device"`
	Object   string   `json:"object"`
	Severity Severity `json:"severity"`
	Message  string   `json:"message"`
}

// String renders the diagnostic for the text report.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s [%s/%s %s]", d.Device, d.Object, d.Message, d.Analyzer, d.Code, d.Severity)
}

// Analyzer is one static check over the assembled model.
type Analyzer struct {
	// Name is the analyzer identity used by suppression directives and
	// the -only flag.
	Name string
	// Code is the stable diagnostic code every finding of this
	// analyzer carries.
	Code string
	// Doc is a one-line description.
	Doc string
	// Run reports findings through the pass.
	Run func(*Pass) error
}

// Pass carries one analyzer run over one model.
type Pass struct {
	Analyzer *Analyzer
	Model    *core.Model
	// K is the failure budget refusal predictions are keyed on —
	// mirroring the -k of the sweep a vet run front-runs.
	K int

	idx   *index
	diags []Diagnostic
}

// Report adds a finding. Analyzer and code are stamped from the pass.
func (p *Pass) Report(d Diagnostic) {
	d.Analyzer = p.Analyzer.Name
	d.Code = p.Analyzer.Code
	p.diags = append(p.diags, d)
}

// Reportf adds a finding with a formatted message.
func (p *Pass) Reportf(device, object string, sev Severity, format string, args ...any) {
	p.Report(Diagnostic{Device: device, Object: object, Severity: sev, Message: fmt.Sprintf(format, args...)})
}

// Sessions returns the static BGP session table of the model (shared
// across the analyzers of one Run).
func (p *Pass) Sessions() *index { return p.idx }

// Analyzers returns every registered analyzer in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		TermShadowAnalyzer,
		DeadRefAnalyzer,
		IBGPGapAnalyzer,
		StaticNHAnalyzer,
		AsymCutAnalyzer,
		CutSoundAnalyzer,
	}
}

// Select resolves a comma-separated list of analyzer names — the -only
// flag of `hoyan vet`, the ?only= parameter of GET /v1/vet — to the
// analyzers to run, in the order named; the empty list selects all.
func Select(only string) ([]*Analyzer, error) {
	all := Analyzers()
	if only == "" {
		return all, nil
	}
	byName := map[string]*Analyzer{}
	var names []string
	for _, a := range all {
		byName[a.Name] = a
		names = append(names, a.Name)
	}
	var out []*Analyzer
	for _, name := range strings.Split(only, ",") {
		name = strings.TrimSpace(name)
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q (have %s)", name, strings.Join(names, ", "))
		}
		out = append(out, a)
	}
	return out, nil
}

// RunBudget applies the analyzers to the model, filters suppressed
// findings (config-level `# hoyan:allow <analyzer> <object> <reason>`
// directives, reason mandatory), and returns the remainder sorted by
// device, then analyzer, object and message. k is the failure budget of
// the sweep the run front-runs: cutsound's refusal predictions depend on
// it.
func RunBudget(m *core.Model, analyzers []*Analyzer, k int) ([]Diagnostic, error) {
	idx := buildIndex(m)
	var out []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{Analyzer: a, Model: m, K: k, idx: idx}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("vet: %s: %w", a.Name, err)
		}
		out = append(out, pass.diags...)
	}
	out = filterAllowed(m, out)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Device != b.Device {
			return a.Device < b.Device
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		if a.Object != b.Object {
			return a.Object < b.Object
		}
		return a.Message < b.Message
	})
	return out, nil
}

// filterAllowed drops diagnostics excused by a directive in the device's
// own configuration. A directive must carry a non-empty reason to
// suppress anything — mirroring lint's mandatory-reason rule, the
// fail-safe direction — and matches on analyzer name plus either the
// exact object identifier or "*".
func filterAllowed(m *core.Model, diags []Diagnostic) []Diagnostic {
	out := diags[:0]
	for _, d := range diags {
		if !suppressed(m, d) {
			out = append(out, d)
		}
	}
	return out
}

func suppressed(m *core.Model, d Diagnostic) bool {
	id, ok := m.Resolve(d.Device)
	if !ok {
		return false
	}
	for _, a := range m.Configs[id].Allows {
		if a.Reason == "" {
			continue
		}
		if a.Analyzer == d.Analyzer && (a.Object == d.Object || a.Object == "*") {
			return true
		}
	}
	return false
}

// Findings counts diagnostics at SevWarn or above — the number the
// exit-code contract keys on.
func Findings(diags []Diagnostic) int {
	n := 0
	for _, d := range diags {
		if d.Severity >= SevWarn {
			n++
		}
	}
	return n
}

// Report is the machine-readable result of a vet run: what `hoyan vet
// -json` prints and GET /v1/vet serves.
type Report struct {
	Findings    int          `json:"findings"`
	Advisories  int          `json:"advisories"`
	Diagnostics []Diagnostic `json:"diagnostics"`
}

// NewReport counts a run's diagnostics. A clean run reports an empty
// list, never null: consumers index into "diagnostics" unconditionally.
func NewReport(diags []Diagnostic) Report {
	if diags == nil {
		diags = []Diagnostic{}
	}
	findings := Findings(diags)
	return Report{Findings: findings, Advisories: len(diags) - findings, Diagnostics: diags}
}
