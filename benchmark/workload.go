package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"hoyan/internal/config"
	"hoyan/internal/gen"
)

// workload is one input shape the whole pipeline runs on. Every workload
// runs every phase (cold verify, the three executors, edits, queries), so
// every metric is measured on every workload; what differs is the WAN and
// the failure budget, which decide which layer the time goes to.
type workload struct {
	name   string
	params gen.Params
	k      int
}

// The shapes were picked from a grid of generator parameters by where a
// traced one-worker sweep spends its time, and each comment below states
// the property as measured (README.md, Workloads, has the table and the
// shapes that were dropped for not differing). A traced run reports the
// shares again as igp.memo_share, core.propagate_share, logic.solve_share
// and qc.compile_per_sweep, so a later change that moves them shows.
//
// The topology seed is part of the shape, not of the run: on gen.Medium
// K=3 the sweep takes 3.2 s, 5.4 s and 13 s at topology seeds 2, 3 and 4
// (link weights and chords move the formula sizes), which would swamp
// every bound when the run seed changes. The run seed draws the edit
// series and the query deck instead.
var workloads = []workload{
	// Compile-bound: five regions at K=3 grow the longest conditions of the
	// grid (26 000 literals), and qc.CompileStore, serial and from scratch
	// on every publish, takes as long as the two-worker sweep (0.97×; 0.2–
	// 0.35× on the other three). The compile cliff of gen.Full, at a size
	// that fits a run.
	{name: "compile-k3", k: 3, params: gen.Params{Seed: 3, Regions: 5, CoresPerRegion: 2, PEsPerRegion: 3,
		MANsPerRegion: 1, PeersPerRegion: 3, PrefixesPerPeer: 3, ExtraCoreLinks: 5, WANAS: 64500}},
	// Memo-bound: gen.Medium's 68-router topology announcing 8 prefixes in
	// 4 classes at K=1. The IGP memo, built once per sweep on one
	// goroutine, is 62 % of a one-worker sweep (1–22 % elsewhere), so a
	// second worker buys nothing and the compile is a fifth of the sweep.
	{name: "memo-k1", k: 1, params: gen.Params{Seed: 2, Regions: 4, CoresPerRegion: 3, PEsPerRegion: 10,
		MANsPerRegion: 3, PeersPerRegion: 1, PrefixesPerPeer: 2, ExtraCoreLinks: 4, WANAS: 64500}},
	// Nothing shared: policy diversity 4 puts each of 64 prefixes in a class
	// of its own on 30 routers. The memo is 1 % and propagation 86 % of the
	// sweep, the store is the largest of the four (2.4 MB, 1920 programs)
	// and saving and loading it costs as much as compiling it; an edit
	// dirties 1–2 of 64 classes.
	{name: "classes-k2", k: 2, params: gen.Params{Seed: 1, Regions: 2, CoresPerRegion: 2, PEsPerRegion: 4,
		MANsPerRegion: 1, PeersPerRegion: 8, PrefixesPerPeer: 4, ExtraCoreLinks: 1, WANAS: 64500, PolicyDiversity: 4}},
	// gen.Small byte for byte: a sweep is under 30 ms, so fixed per-operation
	// costs (parse, assemble, fsync, HTTP, JSON, goroutine start) are the
	// time. The bypass workload for every simulation-side change.
	{name: "small-k1", k: 1, params: gen.Small()},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// edit is one operator change and its rollback, both sent as the updates
// of a POST /v1/resweep. Pairing them keeps the served network from
// drifting: after a rollback the model is what it was before the edit, so
// the cost of the n-th edit does not depend on how many passes ran before
// it.
type edit struct {
	Kind     string
	Device   string
	Apply    []string
	Rollback []string
	// Prime holds lines the edit needs in place and its rollback cannot
	// take out again (the dialect has no "no ip prefix-list"). They go to
	// the edit service once, before any edit is timed.
	Prime []string
}

// query is one request of the deck. Router is empty for class-aggregate
// min-fail and for impact queries; AllUp marks reach queries with no
// failed link, whose answer the sweep's verdicts pin.
type query struct {
	Kind   string
	URL    string
	Prefix string
	Router string
	AllUp  bool
}

// inputs is everything one run feeds the program: the config directory
// on disk and the requests. The program never sees the generator.
type inputs struct {
	dir      string
	prefixes []string // every announced prefix, sorted
	edits    []edit
	deck     []query
}

const (
	deckSize  = 4096
	editSteps = 96 // Perturb steps drawn; a third each are policy and static
)

// prepare generates the run's inputs from the seed and writes the config
// directory. It is the set-up the benchmark times as setup_s.
func prepare(wl workload, seed int64, dir string) (*inputs, error) {
	w, err := gen.Generate(wl.params)
	if err != nil {
		return nil, err
	}
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := w.WriteDir(dir); err != nil {
		return nil, err
	}
	in := &inputs{dir: dir}
	for _, p := range w.Prefixes() {
		in.prefixes = append(in.prefixes, p.String())
	}
	var policies, statics []edit
	for _, p := range gen.Perturb(w, seed, editSteps) {
		switch p.Kind {
		case "static":
			// "ip route P NH preference N" rolls back as "no ip route P NH".
			f := strings.Fields(p.Lines[0])
			statics = append(statics, edit{Kind: p.Kind, Device: p.Device, Apply: p.Lines,
				Rollback: []string{"no " + strings.Join(f[:4], " ")}})
		case "policy":
			// Lines[0] declares the prefix-list the new term matches. The
			// dialect removes whole policies, not terms: the rollback drops
			// TAG and restores the device's generated terms in one update.
			rb := append([]string{"no route-policy TAG"}, policyLines(w.Snap[p.Device], "TAG")...)
			policies = append(policies, edit{Kind: p.Kind, Device: p.Device, Prime: p.Lines[:1], Apply: p.Lines[1:], Rollback: rb})
		}
	}
	// Alternate the kinds, so that any two consecutive passes cover both.
	for i := 0; i < len(policies) && i < len(statics); i++ {
		in.edits = append(in.edits, policies[i], statics[i])
	}
	in.deck = buildDeck(w, in.prefixes, wl.k, seed)
	return in, nil
}

// policyLines returns the named route-policy's lines as config.Write
// renders them (term headers at column 0, clauses indented).
func policyLines(dev *config.Device, name string) []string {
	var out []string
	in := false
	for _, line := range strings.Split(config.Write(dev), "\n") {
		if !strings.HasPrefix(line, " ") {
			in = strings.HasPrefix(line, "route-policy "+name+" ")
		}
		if in {
			out = append(out, line)
		}
	}
	return out
}

// buildDeck draws the 60/20/20 reach/minfail/impact mix. Reach queries
// fail up to K random links; half the min-fail queries name a router.
func buildDeck(w *gen.WAN, prefixes []string, k int, seed int64) []query {
	rng := rand.New(rand.NewSource(seed))
	var routers, links []string
	for _, n := range w.Net.Nodes() {
		if w.Snap[n.Name].BGP != nil {
			routers = append(routers, n.Name)
		}
	}
	for _, l := range w.Net.Links() {
		links = append(links, l.Name)
	}
	deck := make([]query, 0, deckSize)
	for i := 0; i < deckSize; i++ {
		p := prefixes[rng.Intn(len(prefixes))]
		r := routers[rng.Intn(len(routers))]
		switch draw := rng.Intn(10); {
		case draw < 6:
			q := query{Kind: "reach", Prefix: p, Router: r, URL: "/v1/query?kind=reach&prefix=" + p + "&router=" + r}
			var failed []string
			for j := rng.Intn(k + 1); j > 0; j-- {
				failed = append(failed, links[rng.Intn(len(links))])
			}
			if len(failed) > 0 {
				q.URL += "&failed=" + strings.Join(failed, ",")
			}
			q.AllUp = len(failed) == 0
			deck = append(deck, q)
		case draw < 8:
			q := query{Kind: "minfail", Prefix: p, URL: "/v1/query?kind=minfail&prefix=" + p}
			if rng.Intn(2) == 0 {
				q.Router = r
				q.URL += "&router=" + r
			}
			deck = append(deck, q)
		default:
			deck = append(deck, query{Kind: "impact", URL: "/v1/query?kind=impact&link=" + links[rng.Intn(len(links))]})
		}
	}
	return deck
}

// dirStats counts the config directory's files and bytes.
func dirStats(dir string) (files int, bytes int64, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, 0, err
	}
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, 0, err
		}
		files++
		bytes += info.Size()
	}
	return files, bytes, nil
}

func workDir(out, wl string) string {
	return filepath.Join(out, fmt.Sprintf("work-%s-%d", wl, os.Getpid()))
}
