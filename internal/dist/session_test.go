package dist

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"hoyan/internal/behavior"
	"hoyan/internal/core"
	"hoyan/internal/gen"
)

// modelClasses builds the WAN's dispatch partition in the RunClasses
// format: one member list per behavior class, representative first.
func modelClasses(t *testing.T, w *gen.WAN) [][]string {
	t.Helper()
	model, err := core.Assemble(w.Net, w.Snap, behavior.TrueProfiles())
	if err != nil {
		t.Fatal(err)
	}
	var classes [][]string
	for _, c := range model.Classes() {
		classes = append(classes, c.MemberStrings())
	}
	return classes
}

// classPlan is the monolithic plan of a class partition, journaled to s
// (nil for none).
func classPlan(classes [][]string, k int, s *Session) *Plan {
	p := ClassPlan(classes, k)
	p.Journal = s
	return p
}

// canonicalReport serializes a result's reports deterministically so two
// runs can be compared byte for byte.
func canonicalReport(t *testing.T, res *Result) []byte {
	t.Helper()
	prefixes := make([]string, 0, len(res.ByPrefix))
	for p := range res.ByPrefix {
		prefixes = append(prefixes, p)
	}
	sort.Strings(prefixes)
	type entry struct {
		Prefix    string          `json:"prefix"`
		Summaries []RouterSummary `json:"summaries"`
	}
	var out []entry
	for _, p := range prefixes {
		out = append(out, entry{Prefix: p, Summaries: res.ByPrefix[p]})
	}
	b, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestSessionJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	classes := [][]string{
		{"10.0.0.0/24", "10.0.1.0/24"},
		{"10.1.0.0/24"},
		{"10.2.0.0/24", "10.2.1.0/24", "10.2.2.0/24"},
	}
	s, err := NewSession(path, "s1", 3, "abcd1234", classes)
	if err != nil {
		t.Fatal(err)
	}
	s.appendDispatch("10.0.0.0/24")
	sums := []RouterSummary{{Router: "r1", Reachable: true, MinFailures: -1}}
	if err := s.appendDone("10.0.0.0/24", sums, nil); err != nil {
		t.Fatal(err)
	}
	s.appendDispatch("10.1.0.0/24") // in flight at the "crash"
	s.Close()

	r, err := Resume(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.ID() != "s1" || r.K() != 3 || r.Model() != "abcd1234" {
		t.Fatalf("header round-trip: id=%q k=%d model=%q", r.ID(), r.K(), r.Model())
	}
	if err := r.MatchesClasses(classes); err != nil {
		t.Fatalf("classes round-trip: %v", err)
	}
	if r.Completed() != 1 {
		t.Fatalf("completed %d, want 1", r.Completed())
	}
	if r.Redispatched() != 1 {
		t.Fatalf("redispatched %d, want 1 (10.1.0.0/24 was in flight)", r.Redispatched())
	}
	if got := r.done["10.0.0.0/24"].Summaries; len(got) != 1 || got[0] != sums[0] {
		t.Fatalf("journaled report round-trip: %+v", got)
	}
}

// A journal written by an earlier version, whose header also carries an
// options hash, still resumes: the header's unknown keys are ignored.
func TestResumeHeaderWithOptionsHash(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	journal := `{"session":"s1","options_hash":"k=3;prune=true;simplify=true;profiles=tuned","model":"abcd1234","k":3,"classes":[["10.0.0.0/24"],["10.1.0.0/24"]]}` + "\n" +
		`{"done":"10.0.0.0/24","summaries":[{"router":"r1","node":0,"reachable":true,"min_failures":-1}]}` + "\n"
	if err := os.WriteFile(path, []byte(journal), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Resume(path)
	if err != nil {
		t.Fatalf("a header with options_hash must still resume: %v", err)
	}
	defer r.Close()
	if r.ID() != "s1" || r.K() != 3 || r.Model() != "abcd1234" || r.Completed() != 1 {
		t.Fatalf("resumed id=%q k=%d model=%q completed=%d", r.ID(), r.K(), r.Model(), r.Completed())
	}
	if err := r.MatchesClasses([][]string{{"10.0.0.0/24"}, {"10.1.0.0/24"}}); err != nil {
		t.Fatal(err)
	}
}

func TestSessionRefusesToOverwrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	classes := [][]string{{"10.0.0.0/24"}}
	s, err := NewSession(path, "s1", 2, "", classes)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := NewSession(path, "s2", 2, "", classes); err == nil {
		t.Fatal("NewSession must refuse to overwrite an existing journal")
	}
}

// A plan that captures, resuming a journal whose done lines carry no
// record — written by a sweep that did not capture, or in the format of
// a version whose lines never carry one — re-dispatches those classes
// instead of refusing the journal, and journals them again with their
// records: the next resume settles every class, record included, from
// the journal.
func TestResumeCaptureRedispatchesRecordlessDone(t *testing.T) {
	w, err := gen.Generate(gen.Small())
	if err != nil {
		t.Fatal(err)
	}
	classes := modelClasses(t, w)
	addrs, stop := startWorkers(t, w, 2)
	defer stop()
	coord := &Coordinator{Addrs: addrs, Opts: fastOpts()}
	capturing := func(s *Session) *Plan {
		p := classPlan(classes, 2, s)
		p.Capture = true
		return p
	}

	path := filepath.Join(t.TempDir(), "sweep.journal")
	s, err := NewSession(path, "s1", 2, ModelHash(w.Net, w.Snap), classes)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(classPlan(classes, 2, s), coord); err != nil {
		t.Fatal(err)
	}
	s.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(raw), `"record"`) {
		t.Fatal("a sweep that does not capture journaled records")
	}

	s, err = Resume(path)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(capturing(s), coord)
	s.Close()
	if err != nil {
		t.Fatalf("a capturing plan refused a journal without records: %v", err)
	}
	if res.Resumed != 0 || res.Classes != len(classes) || res.Redispatched != 0 || len(res.Records) != len(classes) {
		t.Fatalf("resumed %d, dispatched %d of %d classes (%d re-dispatched), %d records: want every class dispatched fresh with its record",
			res.Resumed, res.Classes, len(classes), res.Redispatched, len(res.Records))
	}

	s, err = Resume(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	again, err := Run(capturing(s), coord)
	if err != nil {
		t.Fatal(err)
	}
	if again.Resumed != len(classes) || again.Classes != 0 {
		t.Fatalf("resumed %d, dispatched %d: want all %d classes settled from the journal", again.Resumed, again.Classes, len(classes))
	}
	want, _ := json.Marshal(res.Records)
	if got, _ := json.Marshal(again.Records); string(got) != string(want) {
		t.Fatal("the records settled from the journal differ from the ones journaled")
	}
}

// A crash between write and fsync can leave a half-written final line;
// Resume must discard exactly that and keep everything before it.
func TestResumeDiscardsTruncatedTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	classes := [][]string{{"10.0.0.0/24"}, {"10.1.0.0/24"}}
	s, err := NewSession(path, "s1", 2, "", classes)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.appendDone("10.0.0.0/24", []RouterSummary{{Router: "r1", Reachable: true}}, nil); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Simulate the crash: append half of a record, no terminator.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"done":"10.1.0.0/24","summ`)
	f.Close()

	r, err := Resume(path)
	if err != nil {
		t.Fatalf("a truncated tail is exactly what a crash leaves: %v", err)
	}
	if r.Completed() != 1 {
		t.Fatalf("completed %d, want 1 (the half-written record is not a completion)", r.Completed())
	}
	// The damaged tail was truncated away; further appends start clean.
	if err := r.appendDone("10.1.0.0/24", []RouterSummary{{Router: "r1", Reachable: true}}, nil); err != nil {
		t.Fatal(err)
	}
	r.Close()
	r2, err := Resume(path)
	if err != nil {
		t.Fatalf("journal damaged by post-truncation append: %v", err)
	}
	defer r2.Close()
	if r2.Completed() != 2 {
		t.Fatalf("completed %d, want 2", r2.Completed())
	}
}

// Mid-file garbage is not crash damage — the journal cannot be trusted
// and Resume must refuse it.
func TestResumeRejectsMidFileCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	s, err := NewSession(path, "s1", 2, "", [][]string{{"10.0.0.0/24"}})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString("garbage not json\n")
	f.WriteString(`{"done":"10.0.0.0/24"}` + "\n")
	f.Close()
	if _, err := Resume(path); err == nil {
		t.Fatal("mid-file corruption must be refused")
	}

	// An empty file is not a journal either.
	empty := filepath.Join(t.TempDir(), "empty.journal")
	os.WriteFile(empty, nil, 0o644)
	if _, err := Resume(empty); err == nil {
		t.Fatal("empty journal must be refused")
	}
}

func TestMatchesClassesDetectsDrift(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	classes := [][]string{{"10.0.0.0/24", "10.0.1.0/24"}, {"10.1.0.0/24"}}
	s, err := NewSession(path, "s1", 2, "", classes)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Same partition, different class order: fine (dispatch is a set).
	if err := s.MatchesClasses([][]string{{"10.1.0.0/24"}, {"10.0.0.0/24", "10.0.1.0/24"}}); err != nil {
		t.Fatalf("order-insensitive match: %v", err)
	}
	// Different count.
	if err := s.MatchesClasses(classes[:1]); err == nil {
		t.Fatal("class-count drift must be refused")
	}
	// Same count, different membership.
	if err := s.MatchesClasses([][]string{{"10.0.0.0/24"}, {"10.1.0.0/24", "10.0.1.0/24"}}); err == nil {
		t.Fatal("membership drift must be refused")
	}
	// Same members, different representative (dispatch identity changed).
	if err := s.MatchesClasses([][]string{{"10.0.1.0/24", "10.0.0.0/24"}, {"10.1.0.0/24"}}); err == nil {
		t.Fatal("representative drift must be refused")
	}
}

// A journaled session run end to end must be byte-identical to a plain
// RunClasses sweep — journaling is an observability layer, not a
// different verifier.
func TestRunSessionMatchesRunClasses(t *testing.T) {
	w, err := gen.Generate(gen.Small())
	if err != nil {
		t.Fatal(err)
	}
	classes := modelClasses(t, w)
	addrs, stop := startWorkers(t, w, 2)
	defer stop()

	coord := &Coordinator{Addrs: addrs, Opts: fastOpts()}
	plain, err := coord.RunClasses(classes, 2)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "sweep.journal")
	s, err := NewSession(path, "s1", 2, ModelHash(w.Net, w.Snap), classes)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sessioned, err := Run(classPlan(classes, 2, s), coord)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := canonicalReport(t, sessioned), canonicalReport(t, plain); string(got) != string(want) {
		t.Fatal("journaled session diverged from RunClasses")
	}
	if sessioned.Classes != len(classes) || sessioned.Resumed != 0 {
		t.Fatalf("fresh session: classes=%d resumed=%d", sessioned.Classes, sessioned.Resumed)
	}
	if s.Completed() != len(classes) {
		t.Fatalf("journal holds %d completions, want %d", s.Completed(), len(classes))
	}

	// k drift against the journal is refused; k=0 adopts the journal's.
	if _, err := Run(classPlan(classes, 3, s), coord); err == nil {
		t.Fatal("k mismatch must be refused")
	}
	again, err := Run(classPlan(classes, 0, s), coord)
	if err != nil {
		t.Fatal(err)
	}
	if again.Resumed != len(classes) || again.Classes != 0 {
		t.Fatalf("fully journaled session must replay everything: resumed=%d classes=%d", again.Resumed, again.Classes)
	}
	if got, want := canonicalReport(t, again), canonicalReport(t, plain); string(got) != string(want) {
		t.Fatal("journal replay diverged from RunClasses")
	}

	if err := s.Remove(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("Remove must delete the journal")
	}
}
