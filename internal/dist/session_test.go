package dist

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"hoyan/internal/behavior"
	"hoyan/internal/config"
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

// newResult is the empty Result Run starts from.
func newResult() *Result {
	return &Result{ByPrefix: map[string][]RouterSummary{}, Records: map[string]*Record{}}
}

// openAdmitted opens the journal at path and admits plan p to it, as Run
// does first: a fresh journal gets p's header.
func openAdmitted(t *testing.T, path string, p *Plan) (*Session, *Result, []*unit) {
	t.Helper()
	s, err := OpenSession(path)
	if err != nil {
		t.Fatal(err)
	}
	out := newResult()
	pending, err := s.admit(p, p.units(), out)
	if err != nil {
		s.Close()
		t.Fatal(err)
	}
	return s, out, pending
}

func TestSessionJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	classes := [][]string{
		{"10.0.0.0/24", "10.0.1.0/24"},
		{"10.1.0.0/24"},
		{"10.2.0.0/24", "10.2.1.0/24", "10.2.2.0/24"},
	}
	plan := ClassPlan(classes, 3)
	plan.ModelHash = "abcd1234"
	s, _, pending := openAdmitted(t, path, plan)
	if len(pending) != len(classes) {
		t.Fatalf("a fresh journal left %d of %d classes pending", len(pending), len(classes))
	}
	s.appendDispatch("10.0.0.0/24")
	sums := []RouterSummary{{Router: "r1", Reachable: true, MinFailures: -1}}
	if err := s.appendDone("10.0.0.0/24", sums, nil); err != nil {
		t.Fatal(err)
	}
	s.appendDispatch("10.1.0.0/24") // in flight at the "crash"
	s.Close()

	r, out, pending := openAdmitted(t, path, plan)
	defer r.Close()
	if h := r.header; h == nil || h.K != 3 || h.Model != "abcd1234" || len(h.Classes) != len(classes) {
		t.Fatalf("header round-trip: %+v", h)
	}
	if r.Completed() != 1 || out.Resumed != 1 || len(pending) != 2 {
		t.Fatalf("completed %d, resumed %d, %d pending: want 1, 1 and 2", r.Completed(), out.Resumed, len(pending))
	}
	if out.Redispatched != 1 {
		t.Fatalf("redispatched %d, want 1 (10.1.0.0/24 was in flight)", out.Redispatched)
	}
	if got := out.ByPrefix["10.0.1.0/24"]; len(got) != 1 || got[0] != sums[0] {
		t.Fatalf("journaled report round-trip: %+v", got)
	}
}

// A journal written by an earlier version, whose header also carries a
// session id and an options hash, still resumes: the header's unknown
// keys are ignored.
func TestResumeHeaderWithOptionsHash(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	journal := `{"session":"s1","options_hash":"k=3;prune=true;simplify=true;profiles=tuned","model":"abcd1234","k":3,"classes":[["10.0.0.0/24"],["10.1.0.0/24"]]}` + "\n" +
		`{"done":"10.0.0.0/24","summaries":[{"router":"r1","node":0,"reachable":true,"min_failures":-1}]}` + "\n"
	if err := os.WriteFile(path, []byte(journal), 0o644); err != nil {
		t.Fatal(err)
	}
	plan := ClassPlan([][]string{{"10.0.0.0/24"}, {"10.1.0.0/24"}}, 3)
	plan.ModelHash = "abcd1234"
	r, out, pending := openAdmitted(t, path, plan)
	defer r.Close()
	if out.Resumed != 1 || len(pending) != 1 || pending[0].prefix != "10.1.0.0/24" {
		t.Fatalf("resumed %d, pending %d: want the journaled class settled and the other one to run", out.Resumed, len(pending))
	}
	if raw, _ := os.ReadFile(path); string(raw) != journal {
		t.Fatal("resuming rewrote the journal")
	}
}

// Opening an existing journal resumes it, never overwrites it: a plan it
// was written for settles its classes, and any other plan is refused
// with the journal left as it was.
func TestSessionRefusesToOverwrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	plan := ClassPlan([][]string{{"10.0.0.0/24"}, {"10.1.0.0/24"}}, 2)
	s, _, _ := openAdmitted(t, path, plan)
	if err := s.appendDone("10.0.0.0/24", []RouterSummary{{Router: "r1", Reachable: true}}, nil); err != nil {
		t.Fatal(err)
	}
	s.Close()
	written, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	again, err := OpenSession(path)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if _, err := again.admit(ClassPlan([][]string{{"10.0.0.0/24"}, {"10.1.0.0/24"}}, 3), nil, newResult()); err == nil {
		t.Fatal("a plan of another budget must be refused")
	}
	out := newResult()
	if pending, err := again.admit(plan, plan.units(), out); err != nil || out.Resumed != 1 || len(pending) != 1 {
		t.Fatalf("reopening resumed %d classes with %d pending (%v): want 1 and 1", out.Resumed, len(pending), err)
	}
	if raw, _ := os.ReadFile(path); string(raw) != string(written) {
		t.Fatal("reopening the journal overwrote it")
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
	s, err := OpenSession(path)
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

	s, err = OpenSession(path)
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

	s, err = OpenSession(path)
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
// OpenSession must discard exactly that and keep everything before it.
func TestResumeDiscardsTruncatedTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	s, _, _ := openAdmitted(t, path, ClassPlan([][]string{{"10.0.0.0/24"}, {"10.1.0.0/24"}}, 2))
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

	r, err := OpenSession(path)
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
	r2, err := OpenSession(path)
	if err != nil {
		t.Fatalf("journal damaged by post-truncation append: %v", err)
	}
	defer r2.Close()
	if r2.Completed() != 2 {
		t.Fatalf("completed %d, want 2", r2.Completed())
	}
}

// Mid-file garbage is not crash damage — the journal cannot be trusted
// and OpenSession must refuse it. A file with no complete header line is
// what a crash before the header's fsync leaves: a fresh session, whose
// run writes the header into it.
func TestResumeRejectsMidFileCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	plan := ClassPlan([][]string{{"10.0.0.0/24"}}, 2)
	s, _, _ := openAdmitted(t, path, plan)
	s.Close()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString("garbage not json\n")
	f.WriteString(`{"done":"10.0.0.0/24"}` + "\n")
	f.Close()
	if _, err := OpenSession(path); err == nil {
		t.Fatal("mid-file corruption must be refused")
	}

	for _, crashed := range []string{"", `{"model":"ab","k":2,"cla`} {
		headless := filepath.Join(t.TempDir(), "headless.journal")
		os.WriteFile(headless, []byte(crashed), 0o644)
		s, out, pending := openAdmitted(t, headless, plan)
		s.Close()
		if out.Resumed != 0 || len(pending) != 1 || s.header == nil {
			t.Fatalf("%q: resumed %d with %d pending: want a fresh session", crashed, out.Resumed, len(pending))
		}
		if r, err := OpenSession(headless); err != nil || r.header == nil || r.header.K != 2 {
			t.Fatalf("%q: the header written over a crashed one does not read back: %v", crashed, err)
		} else {
			r.Close()
		}
	}
}

// A resumed journal refuses a plan whose failure budget, model or class
// partition differs from its header's; class order alone is no
// difference.
func TestAdmitRefusesPartitionDrift(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	classes := [][]string{{"10.0.0.0/24", "10.0.1.0/24"}, {"10.1.0.0/24"}}
	s, _, _ := openAdmitted(t, path, ClassPlan(classes, 2))
	s.Close()
	resume := func(p *Plan) error {
		r, err := OpenSession(path)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		_, err = r.admit(p, p.units(), newResult())
		return err
	}
	// Same partition, different class order: fine (dispatch is a set).
	if err := resume(ClassPlan([][]string{{"10.1.0.0/24"}, {"10.0.0.0/24", "10.0.1.0/24"}}, 2)); err != nil {
		t.Fatalf("order-insensitive match: %v", err)
	}
	hashed := ClassPlan(classes, 2)
	hashed.ModelHash = "abcd1234"
	for name, p := range map[string]*Plan{
		"budget":         ClassPlan(classes, 3),
		"zero budget":    ClassPlan(classes, 0),
		"model":          hashed,
		"class count":    ClassPlan(classes[:1], 2),
		"membership":     ClassPlan([][]string{{"10.0.0.0/24"}, {"10.1.0.0/24", "10.0.1.0/24"}}, 2),
		"representative": ClassPlan([][]string{{"10.0.1.0/24", "10.0.0.0/24"}, {"10.1.0.0/24"}}, 2),
	} {
		if err := resume(p); err == nil || !strings.Contains(err.Error(), path) {
			t.Fatalf("%s drift: want a refusal naming the journal, got %v", name, err)
		}
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
	s, err := OpenSession(path)
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

	// k drift against the journal is refused, k=0 included: a plan's K
	// is its budget, never the journal's.
	for _, k := range []int{3, 0} {
		if _, err := Run(classPlan(classes, k, s), coord); err == nil {
			t.Fatalf("k=%d against a k=2 journal must be refused", k)
		}
	}
	again, err := Run(classPlan(classes, 2, s), coord)
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

// FuzzOpenSession writes arbitrary bytes as a journal file. OpenSession
// never panics on them; a file it accepts, closed and reopened, yields
// the same header and done lines; and a valid journal cut at any byte
// offset — what a crash mid-write leaves — opens with a prefix of its
// completions.
func FuzzOpenSession(f *testing.F) {
	plan := ClassPlan([][]string{{"10.0.0.0/24", "10.0.1.0/24"}, {"10.1.0.0/24"}, {"10.2.0.0/24"}}, 2)
	plan.ModelHash = "abcd1234"
	valid := filepath.Join(f.TempDir(), "valid.journal")
	s, err := OpenSession(valid)
	if err != nil {
		f.Fatal(err)
	}
	if _, err := s.admit(plan, plan.units(), newResult()); err != nil {
		f.Fatal(err)
	}
	for _, rep := range []string{"10.1.0.0/24", "10.0.0.0/24", "10.2.0.0/24"} {
		s.appendDispatch(rep)
		if err := s.appendDone(rep, []RouterSummary{{Router: "r1", Reachable: true, MinFailures: 1}}, &Record{TaintDevices: []string{"r1"}}); err != nil {
			f.Fatal(err)
		}
	}
	s.Close()
	full, err := os.ReadFile(valid)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(full, uint(len(full)/2))
	f.Add([]byte(`{"session":"s1","options_hash":"x","model":"ab","k":3,"classes":[["10.0.0.0/24"]]}`+"\n"+`{"done":"10.0.0.0/24"}`+"\n"), uint(0))
	f.Add([]byte("null\n{\"dispatched\":\"x\"}\ngarbage\n{}\n"), uint(7))
	f.Add([]byte(`{"classes":[[]]}`+"\n"+`{"done":"a"}`), uint(1))

	// state is everything a session read from its journal.
	state := func(t *testing.T, s *Session) string {
		b, err := json.Marshal([]any{s.header, s.doneOrder, s.done})
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	f.Fuzz(func(t *testing.T, data []byte, cut uint) {
		path := filepath.Join(t.TempDir(), "fuzz.journal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if s, err := OpenSession(path); err == nil {
			first := state(t, s)
			s.Close()
			again, err := OpenSession(path)
			if err != nil {
				t.Fatalf("an accepted journal, reopened: %v", err)
			}
			if got := state(t, again); got != first {
				t.Fatalf("an accepted journal reads back differently:\n%s\n%s", first, got)
			}
			again.Close()
		}

		cutAt := int(cut % uint(len(full)+1))
		if err := os.WriteFile(path, full[:cutAt], 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := OpenSession(path)
		if err != nil {
			t.Fatalf("the valid journal cut at byte %d: %v", cutAt, err)
		}
		defer s.Close()
		if want := []string{"10.1.0.0/24", "10.0.0.0/24", "10.2.0.0/24"}; !slices.Equal(s.doneOrder, want[:len(s.doneOrder)]) {
			t.Fatalf("the valid journal cut at byte %d opens with completions %v, not a prefix of %v", cutAt, s.doneOrder, want)
		}
		if cutAt == len(full) && len(s.doneOrder) != 3 {
			t.Fatalf("the whole valid journal opens with %d completions, want 3", len(s.doneOrder))
		}
	})
}

// TestModelHashBytes pins the model hash: remote workers resolve plans by
// it and journals refuse a resume under another, so the same network must
// hash to the same string in every release, whether its devices are
// written by ModelHash or handed over already written (ModelHashOf).
func TestModelHashBytes(t *testing.T) {
	for _, tc := range []struct {
		name   string
		params gen.Params
		want   string
	}{
		{"small", gen.Small(), "eafa106633c5fbf2"},
		{"medium", gen.Medium(), "c9a64be383e9fcd1"},
	} {
		w, err := gen.Generate(tc.params)
		if err != nil {
			t.Fatal(err)
		}
		texts := map[string]string{}
		for name, d := range w.Snap {
			texts[name] = config.Write(d)
		}
		if got, of := ModelHash(w.Net, w.Snap), ModelHashOf(w.Net, texts); got != tc.want || of != tc.want {
			t.Errorf("%s: ModelHash %s, ModelHashOf %s, want %s", tc.name, got, of, tc.want)
		}
	}
}
