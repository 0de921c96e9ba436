package hoyan

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hoyan/internal/dist"
	"hoyan/internal/logic"
)

func writeStore(t *testing.T, path string) *ResultStore {
	t.Helper()
	conds := logic.NewFactory().Export(logic.True) // one root per verdict
	st := &ResultStore{
		OptionsHash: "k=3;prune=true;simplify=true;profiles=tuned",
		K:           3,
		Configs:     map[string]string{"A": "hostname A\n"},
		Classes: []ClassRecord{
			{
				Members:  []string{"10.0.0.0/24"},
				Verdicts: []dist.RouterSummary{{Router: "A", Reachable: true, MinFailures: -1}},
				Record:   dist.Record{TaintDevices: []string{"A"}, Conds: conds},
			},
			{
				Members:  []string{"10.1.0.0/24", "10.1.1.0/24"},
				Verdicts: []dist.RouterSummary{{Router: "A", Reachable: true, MinFailures: 2}},
				Record:   dist.Record{TaintDevices: []string{"A"}, Conds: conds},
			},
		},
	}
	if err := st.Save(path); err != nil {
		t.Fatal(err)
	}
	return st
}

func TestLoadResultStoreTruncatedIsLoud(t *testing.T) {
	path := filepath.Join(t.TempDir(), "baseline.json")
	writeStore(t, path)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	st, err := LoadResultStore(path)
	if st != nil {
		t.Fatal("a truncated store must not be returned as usable")
	}
	var ce *CorruptStoreError
	if !errors.As(err, &ce) {
		t.Fatalf("want *CorruptStoreError, got %T: %v", err, err)
	}
	if ce.Usable {
		t.Fatal("truncated JSON is not a usable store")
	}
	if !strings.Contains(err.Error(), path) {
		t.Fatalf("the error must name the file: %v", err)
	}
	if !strings.Contains(err.Error(), "NOT usable") {
		t.Fatalf("the error must say whether the store is usable: %v", err)
	}
}

func TestLoadResultStoreQuarantinesBadRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "baseline.json")
	st := writeStore(t, path)
	st.Classes[1].Members = nil // damage one record, keep the other
	if err := st.Save(path); err != nil {
		t.Fatal(err)
	}

	loaded, err := LoadResultStore(path)
	var ce *CorruptStoreError
	if !errors.As(err, &ce) {
		t.Fatalf("want *CorruptStoreError, got %T: %v", err, err)
	}
	if !ce.Usable {
		t.Fatal("one bad record must not poison the whole store")
	}
	if loaded == nil || len(loaded.Classes) != 1 || len(loaded.Quarantined) != 1 {
		t.Fatalf("want 1 kept + 1 quarantined, got %+v", loaded)
	}
	if loaded.Quarantined[0].Index != 1 || loaded.Quarantined[0].Reason == "" {
		t.Fatalf("quarantine must name the record and the reason: %+v", loaded.Quarantined[0])
	}
	if !strings.Contains(err.Error(), "usable") {
		t.Fatalf("the error must say the store is partially usable: %v", err)
	}

	// A pristine store loads silently.
	clean := filepath.Join(t.TempDir(), "clean.json")
	writeStore(t, clean)
	if _, err := LoadResultStore(clean); err != nil {
		t.Fatalf("clean store: %v", err)
	}
}

// TestLoadResultStoreQuarantinesBadVerdicts: a record whose verdicts do
// not line up with its condition roots, name no router, or carry a
// min-failures count no sweep at the store's K could have produced is
// quarantined at load — the class re-simulates — instead of failing the
// query plane's compile at publish.
func TestLoadResultStoreQuarantinesBadVerdicts(t *testing.T) {
	for why, damage := range map[string]func(rec *ClassRecord){
		"fewer verdicts than roots": func(rec *ClassRecord) { rec.Verdicts = nil },
		"no conditions":             func(rec *ClassRecord) { rec.Conds = nil },
		"unnamed router":            func(rec *ClassRecord) { rec.Verdicts[0].Router = "" },
		"min failures above K":      func(rec *ClassRecord) { rec.Verdicts[0].MinFailures = 4 },
		"min failures below -1":     func(rec *ClassRecord) { rec.Verdicts[0].MinFailures = -2 },
	} {
		path := filepath.Join(t.TempDir(), "baseline.json")
		st := writeStore(t, path)
		damage(&st.Classes[1])
		if err := st.Save(path); err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadResultStore(path)
		var ce *CorruptStoreError
		if !errors.As(err, &ce) || !ce.Usable {
			t.Fatalf("%s: want a usable *CorruptStoreError, got %v", why, err)
		}
		if len(loaded.Classes) != 1 || len(loaded.Quarantined) != 1 || loaded.Quarantined[0].Index != 1 {
			t.Fatalf("%s: want class 1 quarantined and class 0 kept, got %d kept, %+v", why, len(loaded.Classes), loaded.Quarantined)
		}
	}
}

// TestLoadResultStoreWithoutVerdicts: a store written before records
// held verdicts (the key is absent there; a nil slice decodes the same)
// has every record quarantined. None survived validation, so there is
// nothing to replay or serve: the store is not usable, none is returned,
// and the error says what to do. This is the one rule `hoyan sweep
// -baseline`, `hoyand -store` and POST /v1/snapshots all read off
// Usable (cmd/hoyan TestUnusableStoreThroughEveryDoor).
func TestLoadResultStoreWithoutVerdicts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "baseline.json")
	st := writeStore(t, path)
	for i := range st.Classes {
		st.Classes[i].Verdicts = nil
	}
	if err := st.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadResultStore(path)
	var ce *CorruptStoreError
	if !errors.As(err, &ce) || ce.Usable || ce.Quarantined != 2 {
		t.Fatalf("want an unusable *CorruptStoreError counting 2 records, got %v", err)
	}
	if loaded != nil {
		t.Fatalf("a store with no valid record must not be returned, got %d kept, %d quarantined", len(loaded.Classes), len(loaded.Quarantined))
	}
	for _, want := range []string{path, "NOT usable", "re-capture the baseline"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("the error must say %q: %v", want, err)
		}
	}
}

// TestLoadResultStoreWithDroppedFields: a store written when class records
// also carried a fingerprint, session and link taints and an IGP flag
// still loads cleanly and replays every class of the unchanged network —
// the decoder ignores keys nothing reads — and the options hash it was
// keyed by is still the one a sweep computes.
func TestLoadResultStoreWithDroppedFields(t *testing.T) {
	if h := optionsHash(Options{K: 3}, ""); h != "k=3;prune=true;simplify=true;profiles=tuned" {
		t.Fatalf("options hash %q moved: every saved baseline would fully invalidate", h)
	}
	n, _ := wanNetwork(t)
	opts := Options{K: 2}
	_, st, err := n.SweepBaseline(opts, 2)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]any
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	for _, c := range raw["classes"].([]any) {
		rec := c.(map[string]any)
		rec["fingerprint"] = "bgp|stale-fingerprint"
		rec["taint_sessions"] = [][2]string{{"pe-r0-0", "core-r0-0"}}
		rec["taint_links"] = [][2]string{{"core-r0-0", "pe-r0-0"}}
		rec["via_igp"] = true
	}
	if data, err = json.Marshal(raw); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadResultStore(path)
	if err != nil {
		t.Fatalf("a store with the dropped record fields must load cleanly: %v", err)
	}
	opts.Baseline = loaded
	rep, err := n.Sweep(opts, 2)
	if err != nil {
		t.Fatal(err)
	}
	if inv := rep.Invalidation; inv == nil || inv.ClassesDirty != 0 || rep.Replayed != rep.Classes {
		t.Fatalf("unchanged network against the loaded store: %+v, %d of %d classes replayed", inv, rep.Replayed, rep.Classes)
	}
}

func TestQuarantineResultStore(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "baseline.json")
	writeStore(t, path)

	q1, err := QuarantineResultStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if q1 != path+".corrupt" {
		t.Fatalf("quarantine path %q", q1)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("the original must be moved away")
	}

	// A second quarantine of the same path picks a numbered variant
	// instead of clobbering the first.
	writeStore(t, path)
	q2, err := QuarantineResultStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if q2 == q1 {
		t.Fatal("second quarantine must not overwrite the first")
	}
	if _, err := os.Stat(q1); err != nil {
		t.Fatalf("first quarantine clobbered: %v", err)
	}
}
