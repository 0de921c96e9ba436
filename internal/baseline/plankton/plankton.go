// Package plankton reimplements the algorithmic core of model-checking
// based configuration verification (Plankton, §2(ii)): explicit-state
// exploration of route-update arrival orders with partial-order reduction.
// It supports update racing natively (every interleaving is explored), but
// k-failure coverage still requires enumerating failure scenarios and
// re-exploring each — the paper's point that Plankton "is not scalable to
// handle failures without topology symmetry".
//
// States are maps from node to its currently selected candidate route;
// events are per-router inbox processings: the chosen router atomically
// selects the best candidate whose predecessor is currently selected, and
// withdrawal cascades re-validate downstream selections. Exploring router
// processing orders (rather than individual message orders) is the
// partial-order reduction: messages to the same router commute, so only
// the router interleaving matters. Visited states are memoized.
package plankton

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"hoyan/internal/behavior"
	"hoyan/internal/config"
	"hoyan/internal/core"
	"hoyan/internal/netaddr"
	"hoyan/internal/racing"
	"hoyan/internal/route"
	"hoyan/internal/topo"
)

// Verifier explores convergence state spaces.
type Verifier struct {
	Net  *topo.Network
	Snap config.Snapshot
	Reg  *behavior.Registry
	// MaxStates bounds the exploration (0 = 1<<20), emulating timeouts.
	MaxStates int
	// Deadline bounds a CheckRouteReach's wall time (zero = none).
	Deadline time.Duration
}

// ErrTimeout reports an exhausted time budget.
var ErrTimeout = errors.New("plankton: time budget exhausted")

// New builds the verifier.
func New(net *topo.Network, snap config.Snapshot, reg *behavior.Registry) *Verifier {
	return &Verifier{Net: net, Snap: snap, Reg: reg}
}

// Report summarizes one exploration.
type Report struct {
	// ConvergedStates is the number of distinct stable convergences.
	ConvergedStates int
	// StatesExplored counts all visited intermediate states (the model-
	// checking cost).
	StatesExplored int
	// PropertyHolds is true when the checked property held in every
	// stable state.
	PropertyHolds bool
	// Ambiguous is true when more than one stable convergence exists.
	Ambiguous bool
}

// state is the per-node selected candidate (-1 = none), serialized for
// memoization.
type state []int

func (s state) key() string {
	var b strings.Builder
	for _, v := range s {
		fmt.Fprintf(&b, "%d,", v)
	}
	return b.String()
}

// Explore floods the prefix's candidates (reusing the racing package's
// flood over the session graph) and explores delivery interleavings under
// one concrete failure scenario. prop is evaluated on each stable state:
// it receives the selected candidate per node.
func (v *Verifier) Explore(prefix netaddr.Prefix, failed topo.FailureScenario, prop func(sel map[topo.NodeID]*racing.Candidate) bool) (Report, error) {
	maxStates := v.MaxStates
	if maxStates == 0 {
		maxStates = 1 << 20
	}
	m, err := core.Assemble(v.Net.Without(failed), v.Snap, v.Reg)
	if err != nil {
		return Report{}, err
	}
	sim := core.NewSimulator(m, core.DefaultOptions())
	// Flood candidates (policies applied, no selection drops).
	rep0, err := racing.Detect(sim, prefix, racing.DefaultOptions())
	if err != nil {
		return Report{}, err
	}
	cands := rep0.Candidates

	better := func(a, b int) bool {
		ca, cb := cands[a], cands[b]
		if route.Better(ca.Route, cb.Route, 0, 0) {
			return true
		}
		if route.Better(cb.Route, ca.Route, 0, 0) {
			return false
		}
		if len(ca.Path) != len(cb.Path) {
			return len(ca.Path) < len(cb.Path)
		}
		return a < b
	}

	n := v.Net.NumNodes()
	start := make(state, n)
	for i := range start {
		start[i] = -1
	}
	// Origins select their local candidate immediately.
	for _, c := range cands {
		if c.Pred < 0 {
			if start[c.Node] == -1 || better(c.ID, start[c.Node]) {
				start[c.Node] = c.ID
			}
		}
	}

	// candidatesAtNode precomputed for the processing step.
	perNode := make([][]int, n)
	for _, c := range cands {
		perNode[c.Node] = append(perNode[c.Node], c.ID)
	}
	// process returns cur with node's inbox handled: select the best
	// candidate whose predecessor is selected, then cascade withdrawals.
	process := func(cur state, node int) state {
		best := -1
		for _, id := range perNode[node] {
			c := cands[id]
			if c.Pred >= 0 && cur[cands[c.Pred].Node] != c.Pred {
				continue
			}
			if best == -1 || better(id, best) {
				best = id
			}
		}
		if best == cur[node] {
			return nil // no change
		}
		next := append(state(nil), cur...)
		next[node] = best
		v.cascade(next, cands, better)
		if next.key() == cur.key() {
			return nil
		}
		return next
	}

	report := Report{PropertyHolds: true}
	visited := map[string]bool{}
	stable := map[string]bool{}
	stack := []state{start}
	visited[start.key()] = true
	for len(stack) > 0 {
		if report.StatesExplored >= maxStates {
			return report, fmt.Errorf("plankton: state budget %d exhausted", maxStates)
		}
		report.StatesExplored++
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]

		// Enabled routers.
		var enabled []int
		results := map[int]state{}
		for node := 0; node < n; node++ {
			if next := process(cur, node); next != nil {
				enabled = append(enabled, node)
				results[node] = next
			}
		}
		progressed := len(enabled) > 0
		// Persistent-set reduction: pick the lowest enabled router X; if
		// its processing commutes with every other enabled router's
		// (two-step results agree in both orders), only X's order matters
		// and no branch is needed. Otherwise branch on X and each
		// conflicting router.
		var explore []int
		if len(enabled) > 0 {
			x := enabled[0]
			explore = []int{x}
			for _, y := range enabled[1:] {
				xy := process2(process, results[x], y)
				yx := process2(process, results[y], x)
				if xy.key() != yx.key() {
					explore = append(explore, y)
				}
			}
		}
		for _, node := range explore {
			next := results[node]
			k := next.key()
			if !visited[k] {
				visited[k] = true
				stack = append(stack, next)
			}
		}
		if !progressed {
			k := cur.key()
			if !stable[k] {
				stable[k] = true
				report.ConvergedStates++
				sel := map[topo.NodeID]*racing.Candidate{}
				for node, id := range cur {
					if id >= 0 {
						sel[topo.NodeID(node)] = &cands[id]
					}
				}
				if prop != nil && !prop(sel) {
					report.PropertyHolds = false
				}
			}
		}
	}
	report.Ambiguous = report.ConvergedStates > 1
	return report, nil
}

// cascade re-validates selections after a change: any node selecting a
// candidate whose predecessor is no longer selected reverts to its best
// still-valid candidate.
func (v *Verifier) cascade(s state, cands []racing.Candidate, better func(a, b int) bool) {
	changed := true
	for changed {
		changed = false
		for node := range s {
			id := s[node]
			if id < 0 {
				continue
			}
			c := cands[id]
			if c.Pred >= 0 && s[cands[c.Pred].Node] != c.Pred {
				// Fallback: best candidate whose predecessor holds.
				s[node] = -1
				for _, alt := range candidatesAt(cands, topo.NodeID(node)) {
					ca := cands[alt]
					if ca.Pred >= 0 && s[cands[ca.Pred].Node] != ca.Pred {
						continue
					}
					if s[node] == -1 || better(alt, s[node]) {
						s[node] = alt
					}
				}
				changed = true
			}
		}
	}
}

// process2 applies a processing step to a state, treating "no change" as
// identity (for commutation checks).
func process2(process func(state, int) state, s state, node int) state {
	if next := process(s, node); next != nil {
		return next
	}
	return s
}

func candidatesAt(cands []racing.Candidate, node topo.NodeID) []int {
	var out []int
	for _, c := range cands {
		if c.Node == node {
			out = append(out, c.ID)
		}
	}
	sort.Ints(out)
	return out
}

// KFailureReport aggregates exploration over all ≤k failure scenarios.
type KFailureReport struct {
	Tolerant  bool
	Witness   topo.FailureScenario
	Scenarios int
	States    int
}

// CheckRouteReach verifies that target selects some route to the prefix in
// every stable convergence of every ≤k-failure scenario.
func (v *Verifier) CheckRouteReach(prefix netaddr.Prefix, target string, k int) (KFailureReport, error) {
	node, ok := v.Net.NodeByName(target)
	if !ok {
		return KFailureReport{}, fmt.Errorf("plankton: unknown node %q", target)
	}
	rep := KFailureReport{Tolerant: true}
	start := time.Now()
	var firstErr error
	for kk := 0; kk <= k && rep.Tolerant && firstErr == nil; kk++ {
		v.Net.EnumerateFailures(kk, func(fs topo.FailureScenario) bool {
			if v.Deadline > 0 && time.Since(start) > v.Deadline {
				firstErr = ErrTimeout
				return false
			}
			rep.Scenarios++
			r, err := v.Explore(prefix, fs, func(sel map[topo.NodeID]*racing.Candidate) bool {
				_, has := sel[node.ID]
				return has
			})
			if err != nil {
				firstErr = err
				return false
			}
			rep.States += r.StatesExplored
			if !r.PropertyHolds || r.ConvergedStates == 0 {
				rep.Tolerant = false
				rep.Witness = fs
				return false
			}
			return true
		})
	}
	return rep, firstErr
}
