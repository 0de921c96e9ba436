// Sweep sessions: a crash-safe unit of distributed verification.
//
// Re-queueing in-flight passes makes worker death survivable; a Session
// extends the same machinery to coordinator death. A journal is
// the plan written down: the run that takes a fresh session as its
// plan's Journal writes the plan's model hash, K and class partition as
// the header, then appends one record per class as its state changes
// (dispatched, then done with the completed report) to an append-only
// JSON-lines file, fsync'd at class granularity (a class's report is
// durable before the scheduler settles it). Opening an existing journal
// resumes it: OpenSession reads it back, tolerating exactly the damage a
// crash can cause (a truncated final line), and Run settles completed
// classes from their journaled reports while dispatching only the
// remainder — after refusing a plan of another model, K or partition.
// The resumed result is byte-identical to an uninterrupted run because
// per-class reports are deterministic and replication is exact.
//
// Journal format (one JSON value per line):
//
//	{"model":"ab12…","k":3,"classes":[["10.0.0.0/24","10.0.1.0/24"],…]}
//	{"dispatched":"10.0.0.0/24"}
//	{"done":"10.0.0.0/24","summaries":[…],"record":{…}}
//
// A done line carries the class's Record when the plan that wrote it
// captures (Plan.Capture). A plan that captures re-dispatches a class
// whose done line has none, instead of refusing the journal.
//
// Only the header and done records are fsync'd: a lost dispatched record
// merely loses the "was in flight at the crash" annotation, never a
// result.
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

// sessionHeader is the journal's first line: the plan facts a resumed
// run must agree with. Unknown keys are ignored, so a header carrying
// fields this version no longer writes (a session id, an options hash)
// still resumes.
type sessionHeader struct {
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

// Session is a journaled sweep session. Open one with OpenSession, run
// it as a Plan's Journal, and Remove the journal once the sweep fully
// completed.
type Session struct {
	// KillAfter, when > 0, aborts the session with ErrSessionKilled after
	// that many freshly journaled class completions — deterministic
	// coordinator-crash injection for the chaos tests. Zero disables.
	KillAfter int

	path   string
	f      *os.File       // nil until a fresh session's file is created
	header *sessionHeader // nil until written: a fresh session

	mu         sync.Mutex
	done       map[string]journalRecord // rep -> its done line
	doneOrder  []string                 // reps in journal completion order
	dispatched map[string]bool          // reps with a dispatched record
	fresh      int                      // completions journaled by this process
	killed     bool
}

// OpenSession opens the journal at path. A missing file, or one a crash
// left without a complete header line, is a fresh session: the run that
// takes it writes the header from its plan. An existing journal resumes.
// A truncated final line — the only damage a crash between write and
// fsync can cause — is discarded (and overwritten by the next append);
// any other malformed line is an error, because mid-file corruption
// means the journal cannot be trusted.
func OpenSession(path string) (*Session, error) {
	s := &Session{path: path, done: map[string]journalRecord{}, dispatched: map[string]bool{}}
	raw, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return s, nil
	}
	if err != nil {
		return nil, fmt.Errorf("dist: reading session journal: %w", err)
	}
	valid := 0 // byte offset of the end of the last fully parsed line
	for off := 0; off < len(raw); {
		nl := bytes.IndexByte(raw[off:], '\n')
		if nl < 0 {
			break // no terminator: a crash-truncated tail, discarded
		}
		line, end := raw[off:off+nl], off+nl+1
		if s.header == nil {
			s.header = &sessionHeader{}
			if err := json.Unmarshal(line, s.header); err != nil {
				return nil, fmt.Errorf("dist: session journal %s: corrupt header: %w", path, err)
			}
		} else {
			var rec journalRecord
			if err := json.Unmarshal(line, &rec); err != nil {
				if end >= len(raw) {
					break // newline-terminated but half-written final line
				}
				return nil, fmt.Errorf("dist: session journal %s: corrupt record at byte %d: %w", path, off, err)
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
		valid, off = end, end
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

// Completed counts the classes with a journaled report.
func (s *Session) Completed() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.doneOrder)
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
// completed with nothing left to resume. A journal never written (no run
// took the session: an empty partition) is already gone.
func (s *Session) Remove() error {
	s.Close()
	if err := os.Remove(s.path); err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	return nil
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
		return fmt.Errorf("dist: session journal %s is closed", s.path)
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

// admit opens a run of plan p under the journal. A fresh session writes
// and fsyncs p's header — into the headless file a crash left, or a file
// it creates, which must not exist by then — and every unit is pending. A resumed one refuses a plan the
// journal was not written for (failure budget, model or class partition
// drifted), settles every class the journal already holds a report for —
// and, when p captures, a record — without touching a worker, and
// returns the units still to run, including anything dispatched but
// unfinished at a crash, re-dispatched exactly like a pass lost to worker
// death. The audits of a journaled class do not run again.
func (s *Session) admit(p *Plan, units []*unit, out *Result) ([]*unit, error) {
	want := sessionHeader{Model: p.ModelHash, K: p.K}
	for _, c := range p.Classes {
		if len(c.Members) > 0 {
			want.Classes = append(want.Classes, c.Members)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.header == nil {
		if s.f == nil {
			f, err := os.OpenFile(s.path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
			if err != nil {
				return nil, fmt.Errorf("dist: creating session journal: %w", err)
			}
			s.f = f
		}
		if err := s.writeLine(want, true); err != nil {
			return nil, err
		}
		s.header = &want
		return units, nil
	}
	if err := s.header.admits(want); err != nil {
		return nil, fmt.Errorf("dist: session journal %s %w; remove the journal and sweep fresh", s.path, err)
	}
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
	return pending, nil
}

// admits compares a journal's header with the header of the plan
// resuming it. A different failure budget, model or class partition
// would replay reports for a question no longer asked. Class order does
// not matter (dispatch is a set); the representative does, since it
// names the dispatch, and the members name the replication set.
func (h *sessionHeader) admits(p sessionHeader) error {
	switch {
	case h.K != p.K:
		return fmt.Errorf("journaled k=%d but the plan verifies k=%d", h.K, p.K)
	case h.Model != p.Model:
		return fmt.Errorf("journaled model %s but the plan verifies %s (model changed since the crash?)", h.Model, p.Model)
	case len(h.Classes) != len(p.Classes):
		return fmt.Errorf("journaled %d classes but the plan has %d (model changed since the crash?)", len(h.Classes), len(p.Classes))
	}
	key := func(cls [][]string) []string {
		out := make([]string, len(cls))
		for i, c := range cls {
			sorted := append([]string(nil), c...)
			sort.Strings(sorted)
			out[i] = fmt.Sprint(c[:min(len(c), 1)], sorted)
		}
		sort.Strings(out)
		return out
	}
	want, got := key(h.Classes), key(p.Classes)
	for i := range want {
		if want[i] != got[i] {
			return fmt.Errorf("class partition diverged from the plan's (journaled %q vs planned %q)", want[i], got[i])
		}
	}
	return nil
}

// ModelHash fingerprints a (topology, snapshot) pair deterministically:
// the hash two processes compute for the same model is identical, so a
// coordinator's requests route to the worker-side core.Shared assembled
// from the same inputs, and never to another session's model.
func ModelHash(n *topo.Network, snap config.Snapshot) string {
	texts := make(map[string]string, len(snap))
	for name, d := range snap {
		texts[name] = config.Write(d)
	}
	return ModelHashOf(n, texts)
}

// ModelHashOf is ModelHash of a snapshot whose devices are already
// written: texts holds config.Write of every device, by name.
func ModelHashOf(n *topo.Network, texts map[string]string) string {
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
	names := make([]string, 0, len(texts))
	for name := range texts {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(h, "cfg %s\n%s\n", name, texts[name])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
