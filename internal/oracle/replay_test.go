package oracle

import (
	"testing"
	"time"

	"hoyan/internal/behavior"
	"hoyan/internal/gen"
	"hoyan/internal/netaddr"
	"hoyan/internal/topo"
)

// replayWAN generates the WAN of p and replays the witnesses of every
// prefix it announces at budget k.
func replayWAN(t *testing.T, p gen.Params, k int) (*Replay, time.Duration) {
	t.Helper()
	wa, err := gen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	rep, err := ReplayWitnesses(wa.Net, wa.Snap, behavior.TrueProfiles(), k, wa.Prefixes())
	if err != nil {
		t.Fatal(err)
	}
	return rep, time.Since(start)
}

// TestReplayNamesPlantedFalseAlarm: on a net where every witness holds,
// a false alarm planted at one (prefix, router) — its witness replaced by
// the empty failure set, under which the router's route is up — is the
// one refutation the replay reports.
func TestReplayNamesPlantedFalseAlarm(t *testing.T) {
	const k = 2
	wa, err := gen.Generate(gen.Small())
	if err != nil {
		t.Fatal(err)
	}
	reg := behavior.TrueProfiles()
	clean, err := ReplayWitnesses(wa.Net, wa.Snap, reg, k, wa.Prefixes())
	if err != nil {
		t.Fatal(err)
	}
	if clean.Verdicts == 0 || len(clean.Refuted) != 0 {
		t.Fatalf("gen.Small at K=%d: %d finite verdicts, %d refuted; the self-test needs some, all confirmed", k, clean.Verdicts, len(clean.Refuted))
	}

	var at struct {
		prefix netaddr.Prefix
		router string
	}
	plant = func(p netaddr.Prefix, router string, w topo.FailureScenario) topo.FailureScenario {
		if at.router == "" {
			at.prefix, at.router = p, router
		}
		if p == at.prefix && router == at.router {
			return nil
		}
		return w
	}
	defer func() { plant = nil }()
	got, err := ReplayWitnesses(wa.Net, wa.Snap, reg, k, wa.Prefixes())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Refuted) != 1 || got.Refuted[0].Prefix != at.prefix || got.Refuted[0].Router != at.router || len(got.Refuted[0].Witness) != 0 {
		t.Fatalf("planted a false alarm at %s @ %s; the replay refuted %+v", at.prefix, at.router, got.Refuted)
	}
	if got.Verdicts != clean.Verdicts {
		t.Fatalf("%d finite verdicts with the plant, %d without", got.Verdicts, clean.Verdicts)
	}
}

// TestReplayWorkloadShapes logs the witness replay of the benchmark's
// four workload shapes and gates nothing: the IGP alternative cap makes
// some finite verdicts false alarms (EXPERIMENTS.md, "Witness replay"),
// and a zero-refutation gate belongs to the change that removes the cap.
func TestReplayWorkloadShapes(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("replays every finite verdict of four workload shapes")
	}
	for _, sh := range []struct {
		name string
		p    gen.Params
		k    int
	}{
		{"small-k1", gen.Small(), 1},
		{"classes-k2", gen.Params{Seed: 1, Regions: 2, CoresPerRegion: 2, PEsPerRegion: 4,
			MANsPerRegion: 1, PeersPerRegion: 8, PrefixesPerPeer: 4, ExtraCoreLinks: 1, WANAS: 64500, PolicyDiversity: 4}, 2},
		{"memo-k1", gen.Params{Seed: 2, Regions: 4, CoresPerRegion: 3, PEsPerRegion: 10,
			MANsPerRegion: 3, PeersPerRegion: 1, PrefixesPerPeer: 2, ExtraCoreLinks: 4, WANAS: 64500}, 1},
		{"compile-k3", gen.Params{Seed: 3, Regions: 5, CoresPerRegion: 2, PEsPerRegion: 3,
			MANsPerRegion: 1, PeersPerRegion: 3, PrefixesPerPeer: 3, ExtraCoreLinks: 5, WANAS: 64500}, 3},
	} {
		rep, d := replayWAN(t, sh.p, sh.k)
		t.Logf("%-10s K=%d: %4d finite verdicts, %3d witnesses refuted, %3d concrete runs, %v", sh.name, sh.k, rep.Verdicts, len(rep.Refuted), rep.Runs, d.Round(time.Millisecond))
	}
}
