package hoyan

import (
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"hoyan/internal/behavior"
	"hoyan/internal/core"
	"hoyan/internal/gen"
	"hoyan/internal/topo"
)

// TestSweepIndependentOfTopologyFileOrder: what a WAN costs to verify, and
// what the verdicts are, is a property of the WAN and not of how its
// topology file happens to list it. A generated config directory is swept
// as written and again with the link lines of topology.txt shuffled and
// half of them naming their endpoints the other way round — so every link
// id, hence every aliveness variable, differs. The verdict digest and the
// solver's variable order, read as endpoint-name pairs, are identical,
// and the solver makes the same number of nodes to within the few percent
// that the engine's own link-id tie-breaks (adjacency order follows link
// ids: which of two equal-cost IS-IS paths is listed first, which
// parallel session condition is built first) leave; branching on link
// ids, the same shuffle cost 2.6–16× (EXPERIMENTS.md, "Variable order").
func TestSweepIndependentOfTopologyFileOrder(t *testing.T) {
	cases := []struct {
		name   string
		params gen.Params
		k      int
	}{
		{"small", gen.Small(), 1},
		{"medium", gen.Medium(), 2},
	}
	for _, tc := range cases {
		if tc.name != "small" && (testing.Short() || raceEnabled) {
			continue
		}
		t.Run(tc.name, func(t *testing.T) {
			w, err := gen.Generate(tc.params)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			if err := w.WriteDir(dir); err != nil {
				t.Fatal(err)
			}
			digest, order, nodes := sweepDir(t, dir, tc.k)

			for seed := int64(1); seed <= 3; seed++ {
				shuffleTopologyFile(t, dir, seed)
				gotDigest, gotOrder, gotNodes := sweepDir(t, dir, tc.k)
				if gotDigest != digest {
					t.Fatalf("shuffle %d: verdict digest %s, want %s", seed, gotDigest, digest)
				}
				if !slices.Equal(gotOrder, order) {
					t.Fatalf("shuffle %d: the variable order moved with the file:\n got %v\nwant %v", seed, gotOrder, order)
				}
				if 10*gotNodes > 11*nodes || 10*nodes > 11*gotNodes {
					t.Fatalf("shuffle %d: %d solver nodes, %d as generated: more than 1.1× apart", seed, gotNodes, nodes)
				}
				t.Logf("shuffle %d: %d solver nodes, %d as generated", seed, gotNodes, nodes)
			}
		})
	}
}

// sweepDir loads a config directory and reports its sweep's verdict
// digest, its variable order as endpoint-name pairs (smaller name first)
// and the solver nodes the class representatives' runs made.
func sweepDir(t *testing.T, dir string, k int) (digest string, order []string, solverNodes int) {
	t.Helper()
	tnet, snap, err := gen.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := NetworkFrom(tnet, snap).Sweep(Options{K: k}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range tnet.VarOrder().Vars() {
		l := tnet.Link(topo.LinkID(v))
		a, b := tnet.Node(l.A).Name, tnet.Node(l.B).Name
		order = append(order, min(a, b)+"~"+max(a, b))
	}
	model, err := core.Assemble(tnet, snap, behavior.TrueProfiles())
	if err != nil {
		t.Fatal(err)
	}
	copts := core.DefaultOptions()
	copts.K = k
	sim := core.NewShared(model, copts).NewSimulator()
	for ci, cls := range model.Classes() {
		if ci > 0 {
			sim.Reset()
		}
		res, err := sim.Run(cls.Rep)
		if err != nil {
			t.Fatal(err)
		}
		solverNodes += res.Stats.SolverNodes
	}
	return reportDigest(rep), order, solverNodes
}

// shuffleTopologyFile rewrites dir's topology.txt with its link lines in
// a seeded random order, every other one (by the same seed) with its
// endpoints swapped. Node lines keep their place.
func shuffleTopologyFile(t *testing.T, dir string, seed int64) {
	t.Helper()
	path := filepath.Join(dir, "topology.txt")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rest, links []string
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "link" {
			links = append(links, line)
		} else {
			rest = append(rest, line)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(links), func(i, j int) { links[i], links[j] = links[j], links[i] })
	for _, i := range rng.Perm(len(links))[:len(links)/2] {
		f := strings.Fields(links[i])
		links[i] = strings.Join([]string{f[0], f[2], f[1], f[3]}, " ")
	}
	if err := os.WriteFile(path, []byte(strings.Join(append(rest, links...), "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
}
