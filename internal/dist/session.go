// Sweep sessions: a crash-safe unit of distributed verification.
//
// PR 1 made worker death survivable by re-queueing in-flight jobs; a
// Session extends the same machinery to coordinator death. The
// coordinator appends a per-session job journal — session id, K, model
// hash, the full class membership, and one record per class
// as its state changes (dispatched, then done with the completed report)
// — to an append-only JSON-lines file, fsync'd at class granularity (a
// class's report is durable before the scheduler settles it). Resume
// reads the journal back, tolerating exactly the damage a crash can
// cause (a truncated final line), reconstructs the ready queue from the
// unfinished classes, and Run (with the session as the plan's Journal)
// settles completed classes from their journaled reports while
// dispatching only the remainder. The
// resumed result is byte-identical to an uninterrupted run because
// per-class reports are deterministic and replication is exact.
//
// Journal format (one JSON value per line):
//
//	{"session":"s1","model":"ab12…","k":3,"classes":[["10.0.0.0/24","10.0.1.0/24"],…]}
//	{"dispatched":"10.0.0.0/24"}
//	{"done":"10.0.0.0/24","summaries":[…],"record":{…}}
//
// A done line carries the class's Record when the plan that wrote it
// captures (Plan.Capture). A plan that captures re-dispatches a class
// whose done line has none, instead of refusing the journal.
//
// Only done records are fsync'd: a lost dispatched record merely loses
// the "was in flight at the crash" annotation, never a result.
package dist

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"

	"hoyan/internal/config"
	"hoyan/internal/topo"
)

// ErrSessionKilled marks a session aborted at an injected crash point
// (Session.KillAfter) — the chaos harness's stand-in for coordinator
// death. The journal is left exactly as a real crash would leave it: a
// valid, fsync'd prefix of the run.
var ErrSessionKilled = errors.New("dist: session killed at injected crash point")

// sessionHeader is the journal's first line: everything Resume needs to
// rebuild the job list and validate that resuming is sound. Unknown keys
// are ignored, so a header carrying fields this version no longer writes
// still resumes.
type sessionHeader struct {
	Session string     `json:"session"`
	Model   string     `json:"model,omitempty"`
	K       int        `json:"k"`
	Classes [][]string `json:"classes"`
}

// journalRecord is one appended line after the header. Exactly one of
// Dispatched/Done is set.
type journalRecord struct {
	// Dispatched marks the class representative handed to a worker (not
	// fsync'd; informational).
	Dispatched string `json:"dispatched,omitempty"`
	// Done marks the class representative whose report completed;
	// Summaries is that report, and Record the pass's record when the
	// plan captures. Appended and fsync'd before the scheduler counts the
	// class finished.
	Done      string          `json:"done,omitempty"`
	Summaries []RouterSummary `json:"summaries,omitempty"`
	Record    *Record         `json:"record,omitempty"`
}

// Session is a journaled sweep session. Create one with NewSession (or
// reconstruct a crashed one with Resume), run it as a Plan's Journal, and
// Remove the journal once the sweep fully completed.
type Session struct {
	// KillAfter, when > 0, aborts the session with ErrSessionKilled after
	// that many freshly journaled class completions — deterministic
	// coordinator-crash injection for the chaos tests. Zero disables.
	KillAfter int

	path   string
	f      *os.File
	header sessionHeader

	mu         sync.Mutex
	done       map[string]journalRecord // rep -> its done line
	doneOrder  []string                 // reps in journal completion order
	dispatched map[string]bool          // reps with a dispatched record
	fresh      int                      // completions journaled by this process
	killed     bool
}

// NewSession creates the journal file (refusing to overwrite an existing
// one — resume or remove it instead) and writes the fsync'd header.
// classes is the full dispatch partition, each class's representative
// first: the Members of the plan's Classes.
func NewSession(path, id string, k int, modelHash string, classes [][]string) (*Session, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		if errors.Is(err, os.ErrExist) {
			return nil, fmt.Errorf("dist: session journal %s already exists (resume it or remove it first): %w", path, err)
		}
		return nil, fmt.Errorf("dist: creating session journal: %w", err)
	}
	s := &Session{
		path: path, f: f,
		header:     sessionHeader{Session: id, Model: modelHash, K: k, Classes: classes},
		done:       map[string]journalRecord{},
		dispatched: map[string]bool{},
	}
	if err := s.writeLine(s.header, true); err != nil {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	return s, nil
}

// Resume reconstructs a session from its journal. A truncated final
// line — the only damage a crash between write and fsync can cause — is
// discarded (and overwritten by the next append); any other malformed
// line is an error, because mid-file corruption means the journal cannot
// be trusted. The returned session appends further records to the same
// file.
func Resume(path string) (*Session, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("dist: reading session journal: %w", err)
	}
	s := &Session{
		path:       path,
		done:       map[string]journalRecord{},
		dispatched: map[string]bool{},
	}
	valid := 0 // byte offset of the end of the last fully parsed line
	lineno := 0
	for off := 0; off < len(raw); {
		nl := bytes.IndexByte(raw[off:], '\n')
		if nl < 0 {
			break // no terminator: a crash-truncated tail, discarded
		}
		line := raw[off : off+nl]
		end := off + nl + 1
		lineno++
		if lineno == 1 {
			if err := json.Unmarshal(line, &s.header); err != nil {
				return nil, fmt.Errorf("dist: session journal %s: corrupt header: %w", path, err)
			}
			if len(s.header.Classes) == 0 {
				return nil, fmt.Errorf("dist: session journal %s: header carries no classes", path)
			}
		} else {
			var rec journalRecord
			if err := json.Unmarshal(line, &rec); err != nil {
				if end >= len(raw) {
					break // newline-terminated but half-written final line
				}
				return nil, fmt.Errorf("dist: session journal %s: corrupt record at line %d: %w", path, lineno, err)
			}
			switch {
			case rec.Done != "":
				if _, dup := s.done[rec.Done]; !dup {
					s.doneOrder = append(s.doneOrder, rec.Done)
				}
				s.done[rec.Done] = rec
			case rec.Dispatched != "":
				s.dispatched[rec.Dispatched] = true
			}
		}
		valid = end
		off = end
	}
	if lineno == 0 {
		return nil, fmt.Errorf("dist: session journal %s is empty", path)
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("dist: reopening session journal: %w", err)
	}
	// Drop the truncated tail so appends continue from a clean line
	// boundary.
	if err := f.Truncate(int64(valid)); err != nil {
		f.Close()
		return nil, fmt.Errorf("dist: truncating damaged journal tail: %w", err)
	}
	if _, err := f.Seek(int64(valid), 0); err != nil {
		f.Close()
		return nil, err
	}
	s.f = f
	return s, nil
}

// ID returns the session id recorded in the journal header.
func (s *Session) ID() string { return s.header.Session }

// K returns the failure budget recorded in the journal header.
func (s *Session) K() int { return s.header.K }

// Model returns the model hash recorded in the journal header ("" when
// the session was created without one).
func (s *Session) Model() string { return s.header.Model }

// Classes returns the full dispatch partition from the journal header
// (read-only; callers must not mutate it).
func (s *Session) Classes() [][]string { return s.header.Classes }

// Completed counts the classes with a journaled report.
func (s *Session) Completed() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.doneOrder)
}

// Redispatched counts classes that were dispatched but not completed
// when the journal was last written — in flight at the crash, dispatched
// again on resume exactly like a pass lost to worker death.
func (s *Session) Redispatched() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for rep := range s.dispatched {
		if _, ok := s.done[rep]; !ok {
			n++
		}
	}
	return n
}

// MatchesClasses verifies that the journal's dispatch partition is
// exactly the given one. Resuming against a different partition — the
// model changed since the crash, or classing options differ — would
// replay reports for classes that no longer exist; refuse loudly.
func (s *Session) MatchesClasses(classes [][]string) error {
	if len(classes) != len(s.header.Classes) {
		return fmt.Errorf("dist: session %s journaled %d classes but the current model has %d (model changed since the crash?); remove the journal and sweep fresh",
			s.header.Session, len(s.header.Classes), len(classes))
	}
	key := func(cls [][]string) []string {
		out := make([]string, len(cls))
		for i, c := range cls {
			sorted := append([]string(nil), c...)
			sort.Strings(sorted)
			// The representative identifies the dispatch; members the
			// replication set.
			out[i] = c[0] + "|" + fmt.Sprint(sorted)
		}
		sort.Strings(out)
		return out
	}
	want, got := key(s.header.Classes), key(classes)
	for i := range want {
		if want[i] != got[i] {
			return fmt.Errorf("dist: session %s class partition diverged from the current model (journaled %q vs current %q); remove the journal and sweep fresh",
				s.header.Session, want[i], got[i])
		}
	}
	return nil
}

// Close releases the journal file handle. The journal stays on disk;
// use Remove after a fully successful run.
func (s *Session) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	err := s.f.Close()
	s.f = nil
	return err
}

// Remove closes and deletes the journal — call it once the session
// completed with nothing left to resume.
func (s *Session) Remove() error {
	s.Close()
	return os.Remove(s.path)
}

// writeLine appends one JSON line, optionally fsync'ing it.
func (s *Session) writeLine(v any, syncNow bool) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("dist: encoding journal record: %w", err)
	}
	if _, err := s.f.Write(append(data, '\n')); err != nil {
		return fmt.Errorf("dist: appending to session journal: %w", err)
	}
	if syncNow {
		if err := s.f.Sync(); err != nil {
			return fmt.Errorf("dist: syncing session journal: %w", err)
		}
	}
	return nil
}

// appendDispatch journals a dispatch (best-effort, not fsync'd: losing
// it costs nothing but an annotation).
func (s *Session) appendDispatch(rep string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.killed || s.f == nil || s.dispatched[rep] {
		return
	}
	s.dispatched[rep] = true
	s.writeLine(journalRecord{Dispatched: rep}, false)
}

// appendDone journals a completed class report, with the pass's record
// when it has one, and fsyncs it — the class-granularity durability
// point. When KillAfter is armed it crashes the session after the
// configured number of fresh completions.
func (s *Session) appendDone(rep string, summaries []RouterSummary, rec *Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.killed {
		return ErrSessionKilled
	}
	if s.f == nil {
		return fmt.Errorf("dist: session %s journal is closed", s.header.Session)
	}
	line := journalRecord{Done: rep, Summaries: summaries, Record: rec}
	if err := s.writeLine(line, true); err != nil {
		return err
	}
	if _, dup := s.done[rep]; !dup {
		s.doneOrder = append(s.doneOrder, rep)
	}
	s.done[rep] = line
	s.fresh++
	if s.KillAfter > 0 && s.fresh >= s.KillAfter {
		s.killed = true
		return ErrSessionKilled
	}
	return nil
}

// admit opens a run of plan p under the journal: it refuses a plan the
// journal was not written for (failure budget, model or class partition
// drifted), settles every class the journal already holds a report for
// — and, when p captures, a record — without touching a worker, and
// returns the failure budget (the journal's, which a plan K of 0 adopts)
// plus the units still to run — including anything dispatched but
// unfinished at a crash, re-dispatched exactly like a pass lost to worker
// death. The audits of a journaled class do not run again.
func (s *Session) admit(p *Plan, units []*unit, out *Result) (int, []*unit, error) {
	if p.K != 0 && p.K != s.header.K {
		return 0, nil, fmt.Errorf("dist: session %s journaled k=%d but the run requested k=%d", s.header.Session, s.header.K, p.K)
	}
	if p.ModelHash != "" && s.header.Model != "" && p.ModelHash != s.header.Model {
		return 0, nil, fmt.Errorf("dist: session %s journaled model %s but the plan verifies %s (model changed since the crash?); remove the journal and sweep fresh",
			s.header.Session, s.header.Model, p.ModelHash)
	}
	var classes [][]string
	for _, c := range p.Classes {
		if len(c.Members) > 0 {
			classes = append(classes, c.Members)
		}
	}
	if err := s.MatchesClasses(classes); err != nil {
		return 0, nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	journaled := map[int]bool{} // by class
	for _, u := range units {
		if d, ok := s.done[u.prefix]; ok && u.members != nil && (d.Record != nil || !p.Capture) {
			journaled[u.class] = true
			out.settle(u.members, d.Summaries, d.Record)
			out.Resumed++
		}
	}
	var pending []*unit
	for _, u := range units {
		if journaled[u.class] {
			continue
		}
		pending = append(pending, u)
		if _, done := s.done[u.prefix]; u.members != nil && s.dispatched[u.prefix] && !done {
			out.Redispatched++
		}
	}
	return s.header.K, pending, nil
}

// ModelHash fingerprints a (topology, snapshot) pair deterministically:
// the hash two processes compute for the same model is identical, so a
// coordinator's requests route to the worker-side core.Shared assembled
// from the same inputs, and never to another session's model.
func ModelHash(n *topo.Network, snap config.Snapshot) string {
	h := sha256.New()
	for _, node := range n.Nodes() {
		fmt.Fprintf(h, "node %s %d %s %s %s %s %d\n",
			node.Name, node.AS, node.Vendor, node.SKU, node.Region, node.Group, node.RouterID)
	}
	for _, l := range n.Links() {
		a, b := n.Node(l.A).Name, n.Node(l.B).Name
		if b < a {
			a, b = b, a
		}
		fmt.Fprintf(h, "link %s %s %d\n", a, b, l.Weight)
	}
	names := make([]string, 0, len(snap))
	for name := range snap {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(h, "cfg %s\n%s\n", name, config.Write(snap[name]))
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
