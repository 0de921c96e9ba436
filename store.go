package hoyan

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"hoyan/internal/behavior"
	"hoyan/internal/config"
	"hoyan/internal/core"
	"hoyan/internal/dist"
	"hoyan/internal/igp"
	"hoyan/internal/topo"
)

// ClassRecord is what one simulation of a behavior class's
// representative said, plus the dependency data an incremental sweep
// needs to decide whether a model delta can change it: the per-router
// verdicts the scheduler settled (everything a report, a replay audit and
// the query plane's fixed answers are folded or read from) and the
// pass's dist.Record — the reachability conditions behind the verdicts
// as one factory-independent logic.Portable, the devices the simulation
// actually consulted (core.Taint) widened here with every device the
// report names, and the prefix universe of the run. A new model's classes
// are matched to records by Members, not by behavior fingerprint:
// unrelated config edits can rewrite every fingerprint string while
// preserving the partition.
type ClassRecord struct {
	// Members are the class's prefixes, sorted — the record's identity.
	Members []string `json:"members"`
	// Verdicts are the representative's verdicts at every BGP speaker, in
	// node order: reachable with all links up, and the min failures that
	// break it clipped to the sweep's K (-1 beyond it) — what the pass
	// answered (dist.Response.Summaries), stored as it was.
	Verdicts []dist.RouterSummary `json:"verdicts"`
	// SimTime is the pass's propagation time, replayed into
	// PrefixSummary.SimTime (none for a class resumed from a journal).
	SimTime time.Duration `json:"sim_time_ns,omitempty"`
	// Record's Conds root i is the condition at Verdicts[i].Router. The
	// query plane (internal/qc) lowers each root to a program; a replay
	// audit re-checks the root at the record's anchor.
	dist.Record
}

// StoredLink is one baseline topology link by endpoint names.
type StoredLink struct {
	A      string `json:"a"`
	B      string `json:"b"`
	Weight uint32 `json:"weight"`
}

// ResultStore is a persisted baseline: the swept model (topology plus
// canonical config text, enough to rebuild and diff it) and one
// ClassRecord per behavior class, keyed by the sweep's options hash.
// Produced by Network.SweepBaseline, consumed via Options.Baseline.
type ResultStore struct {
	// OptionsHash fingerprints every option that can change reports
	// (K and the profile registry). A mismatch forces full invalidation.
	OptionsHash string `json:"options_hash"`
	K           int    `json:"k"`
	// Nodes and Links rebuild the baseline topology; Configs holds the
	// canonical serialization (config.Write) of every device.
	Nodes   []topo.Node       `json:"nodes"`
	Links   []StoredLink      `json:"links"`
	Configs map[string]string `json:"configs"`
	Classes []ClassRecord     `json:"classes"`
	// Quarantined holds class records LoadResultStore pulled out of
	// Classes because they failed validation; the rest of the store stays
	// usable (those classes just re-simulate). Never persisted.
	Quarantined []QuarantinedRecord `json:"-"`

	// igp is the IGP memo the capturing sweep ran on, kept by the store a
	// process holds on to and never serialized (a loaded store has none).
	// The memo names its own validity (igp.Key), so nothing here decides
	// whether the next sweep may use it: a sweep with this store as its
	// Options.Baseline offers it, and igp.Build takes it when the new
	// model reads the same IGP inputs — after a policy or static-route
	// edit — and ignores it otherwise.
	igp *igp.Memo
}

// QuarantinedRecord is one invalid class record LoadResultStore refused
// to replay, with the reason.
type QuarantinedRecord struct {
	Index  int // position in the stored classes array
	Reason string
	Record ClassRecord
}

// CorruptStoreError reports a result store that failed to load cleanly.
// It always names the file; Usable distinguishes a store that can still
// serve as a (partial) baseline — bad records quarantined, at least one
// intact — from one that can be neither replayed nor served: truncated
// or syntactically corrupt JSON, or a store none of whose records
// survived validation.
type CorruptStoreError struct {
	Path string
	// Offset is the byte offset of the JSON syntax error (0 when the
	// damage has no position, e.g. a truncated file).
	Offset int64
	// Usable reports whether LoadResultStore returned a store, safe to
	// use as a partial baseline.
	Usable bool
	// Quarantined counts the records that failed validation.
	Quarantined int
	Err         error
}

func (e *CorruptStoreError) Error() string {
	if e.Usable {
		return fmt.Sprintf("hoyan: result store %s: %d invalid class record(s) quarantined (%v); the rest of the store is usable — quarantined classes re-simulate", e.Path, e.Quarantined, e.Err)
	}
	if e.Quarantined > 0 {
		return fmt.Sprintf("hoyan: result store %s: all %d class record(s) are invalid (%v); the store is NOT usable — quarantine it (QuarantineResultStore) and sweep cold", e.Path, e.Quarantined, e.Err)
	}
	if e.Offset > 0 {
		return fmt.Sprintf("hoyan: result store %s is corrupt at byte %d (%v); the store is NOT usable — quarantine it (QuarantineResultStore) and sweep cold", e.Path, e.Offset, e.Err)
	}
	return fmt.Sprintf("hoyan: result store %s is corrupt (%v); the store is NOT usable — quarantine it (QuarantineResultStore) and sweep cold", e.Path, e.Err)
}

func (e *CorruptStoreError) Unwrap() error { return e.Err }

// Save writes the store as JSON, atomically: the bytes go to a unique
// temp file in the destination directory, are fsync'd, and only then
// renamed over path. A crash at any point leaves either the previous
// store or the complete new one — never a torn file for LoadResultStore
// or the quarantine machinery to trip over. Stale temp files from an
// earlier crash are inert (the *.tmp-* name never matches path).
//
// The file holds exactly the bytes json.Marshal(st) returns
// (TestSaveMatchesMarshal); encode says how they are produced.
func (st *ResultStore) Save(path string) error {
	head, recs, err := st.encode()
	if err != nil {
		return fmt.Errorf("hoyan: encoding result store: %w", err)
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("hoyan: saving result store: %w", err)
	}
	cleanup := func(err error) error {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("hoyan: saving result store: %w", err)
	}
	w := bufio.NewWriterSize(tmp, 64<<10)
	w.Write(head)
	if recs != nil {
		w.WriteByte('[')
		for i, r := range recs {
			if i > 0 {
				w.WriteByte(',')
			}
			w.Write(r)
		}
		w.WriteString("]}")
	}
	// A bufio.Writer keeps its first error and returns it from Flush.
	if err := w.Flush(); err != nil {
		return cleanup(err)
	}
	if err := tmp.Sync(); err != nil {
		return cleanup(err)
	}
	if err := tmp.Chmod(0o644); err != nil {
		return cleanup(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("hoyan: saving result store: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("hoyan: saving result store: %w", err)
	}
	return nil
}

// encode produces the bytes json.Marshal(st) returns, in the pieces
// Save writes: head is the store with Classes nil, cut before the null
// where the classes array goes (the whole store when Classes is nil), and
// recs are the class records the array holds, one each. encoding/json
// re-scans and compacts whatever a Marshaler returns, and on a store that
// pass over the condition sets' integer quadruples cost more than writing
// them, so the conditions come from Portable.AppendJSON as they are.
// Records are independent: min(GOMAXPROCS, classes) goroutines encode
// them, striped statically as igp.Build stripes destinations.
//
// Conds is a record's last field and Classes the store's last persisted
// one, which is what makes the pieces add up to json.Marshal's bytes.
func (st *ResultStore) encode() (head []byte, recs [][]byte, err error) {
	hdr := *st
	hdr.Classes = nil
	head, err = json.Marshal(&hdr)
	if err != nil || st.Classes == nil {
		return head, nil, err
	}
	if !bytes.HasSuffix(head, []byte(`"classes":null}`)) {
		return nil, nil, errors.New("store header does not end in its classes")
	}
	head = head[:len(head)-len("null}")]

	recs = make([][]byte, len(st.Classes))
	errs := make([]error, len(st.Classes))
	workers := min(runtime.GOMAXPROCS(0), len(st.Classes))
	var wg sync.WaitGroup
	for g := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; i < len(st.Classes); i += workers {
				recs[i], errs[i] = encodeRecord(&st.Classes[i])
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, nil, fmt.Errorf("class %d: %w", i, err)
		}
	}
	return head, recs, nil
}

// encodeRecord is json.Marshal(rec) for one class record: the record
// without its conditions, then their wire form appended in place of the
// closing brace, into room sized as Portable.MarshalJSON sizes it.
func encodeRecord(rec *ClassRecord) ([]byte, error) {
	if rec.Conds == nil {
		return json.Marshal(rec)
	}
	bare := *rec
	bare.Conds = nil
	b, err := json.Marshal(&bare)
	if err != nil {
		return nil, err
	}
	const key = `,"conds":`
	b = slices.Grow(b[:len(b)-1], len(key)+20*rec.Conds.NumNodes()+8*rec.Conds.NumRoots()+17)
	b = rec.Conds.AppendJSON(append(b, key...))
	return append(b, '}'), nil
}

// LoadResultStore reads a store written by Save. Damage is reported
// loudly but gracefully: truncated or syntactically corrupt JSON returns
// a *CorruptStoreError (Usable=false, with the file name and byte
// offset) and no store; a store that decodes but carries invalid class
// records returns the store with those records moved to Quarantined plus
// a *CorruptStoreError (Usable=true) — callers may keep the partial
// baseline (quarantined classes simply re-simulate) or treat it as
// fatal. A store none of whose records survived validation (one written
// before records held verdicts, say) has nothing to replay and nothing
// to serve: Usable=false and no store, the one rule for every caller.
func LoadResultStore(path string) (*ResultStore, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	st := &ResultStore{}
	if err := json.Unmarshal(data, st); err != nil {
		ce := &CorruptStoreError{Path: path, Err: err}
		var syn *json.SyntaxError
		var typ *json.UnmarshalTypeError
		switch {
		case errors.As(err, &syn):
			ce.Offset = syn.Offset
		case errors.As(err, &typ):
			ce.Offset = typ.Offset
		}
		return nil, ce
	}
	// Validate record by record; a damaged entry is quarantined, not
	// replayed (replaying a half-written record would report stale or
	// nonsensical results as verified).
	kept := st.Classes[:0]
	for i, rec := range st.Classes {
		if why := validateRecord(&rec, st.K); why != "" {
			st.Quarantined = append(st.Quarantined, QuarantinedRecord{Index: i, Reason: why, Record: rec})
			continue
		}
		kept = append(kept, rec)
	}
	st.Classes = kept
	if n := len(st.Quarantined); n > 0 {
		ce := &CorruptStoreError{
			Path: path, Usable: len(kept) > 0, Quarantined: n,
			Err: fmt.Errorf("first: class %d: %s", st.Quarantined[0].Index, st.Quarantined[0].Reason),
		}
		if !ce.Usable {
			return nil, ce
		}
		return st, ce
	}
	return st, nil
}

// validateRecord checks the invariants replay and the query plane depend
// on; it returns a reason string for an unusable record, "" for a good
// one. k is the store's failure budget.
func validateRecord(rec *ClassRecord, k int) string {
	if len(rec.Members) == 0 {
		return "no members"
	}
	for _, m := range rec.Members {
		if m == "" {
			return "empty member prefix"
		}
	}
	// Verdicts and condition roots must stay aligned: a record where they
	// disagree would serve one router's answer under another's name.
	roots := 0
	if rec.Conds != nil {
		roots = rec.Conds.NumRoots()
	}
	if roots != len(rec.Verdicts) {
		return fmt.Sprintf("%d condition roots for %d router verdicts (a store written before records held verdicts has none: re-capture the baseline with a fresh sweep)", roots, len(rec.Verdicts))
	}
	for _, v := range rec.Verdicts {
		if v.Router == "" {
			return "verdict names no router"
		}
		if v.MinFailures < -1 || v.MinFailures > k {
			return fmt.Sprintf("verdict at %s: min failures %d outside [-1, %d]", v.Router, v.MinFailures, k)
		}
	}
	return ""
}

// QuarantineResultStore moves a corrupt store out of the way (to
// path+".corrupt", or a numbered variant when that exists) so the next
// sweep starts cold instead of tripping over it again. It returns the
// quarantine path.
func QuarantineResultStore(path string) (string, error) {
	dst := path + ".corrupt"
	for i := 1; ; i++ {
		if _, err := os.Stat(dst); os.IsNotExist(err) {
			break
		}
		dst = fmt.Sprintf("%s.corrupt.%d", path, i)
	}
	if err := os.Rename(path, dst); err != nil {
		return "", fmt.Errorf("hoyan: quarantining result store: %w", err)
	}
	return dst, nil
}

// optionsHash fingerprints the report-affecting options: K and the
// profilesKey of the behavior registry, written "tuned" for the true
// profiles. A store captured under one registry therefore replays only
// under a registry that gives the network's vendors the same profiles,
// and fully invalidates under any other. Pruning and simplification are
// always on; their terms stay in the text so that saved stores keep
// matching.
func optionsHash(opts Options, profiles string) string {
	return fmt.Sprintf("k=%d;prune=true;simplify=true;profiles=%s", opts.K, cmp.Or(profiles, "tuned"))
}

func membersKey(members []string) string { return strings.Join(members, " ") }

// newStoreShell captures the model side of a store (topology + configs);
// class records are appended by the sweep.
func newStoreShell(n *Network, opts Options, reg *behavior.Registry) *ResultStore {
	st := &ResultStore{
		OptionsHash: optionsHash(opts, profilesKey(n.net, reg)),
		K:           opts.K,
		Configs:     map[string]string{},
	}
	for _, node := range n.net.Nodes() {
		st.Nodes = append(st.Nodes, *node)
	}
	for _, l := range n.net.Links() {
		st.Links = append(st.Links, StoredLink{
			A: n.net.Node(l.A).Name, B: n.net.Node(l.B).Name, Weight: l.Weight,
		})
	}
	for name, dev := range n.snap {
		st.Configs[name] = config.Write(dev)
	}
	return st
}

// baselineModel rebuilds and assembles the stored baseline. Node IDs are
// re-assigned in stored order; RouterIDs, roles and every other node
// attribute round-trip exactly (topo.AddNode only auto-assigns a zero
// RouterID, and captured nodes always carry the assigned one).
func (st *ResultStore) baselineModel(reg *behavior.Registry) (*core.Model, error) {
	net := topo.NewNetwork()
	for _, node := range st.Nodes {
		node.ID = 0 // reassigned by AddNode
		if _, err := net.AddNode(node); err != nil {
			return nil, fmt.Errorf("hoyan: baseline topology: %w", err)
		}
	}
	for _, l := range st.Links {
		a, ok1 := net.NodeByName(l.A)
		b, ok2 := net.NodeByName(l.B)
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("hoyan: baseline link %s~%s references unknown router", l.A, l.B)
		}
		if _, err := net.AddLink(a.ID, b.ID, l.Weight); err != nil {
			return nil, fmt.Errorf("hoyan: baseline topology: %w", err)
		}
	}
	snap := config.Snapshot{}
	for name, text := range st.Configs {
		d, err := config.Parse(text)
		if err != nil {
			return nil, fmt.Errorf("hoyan: baseline config for %s: %w", name, err)
		}
		snap[name] = d
	}
	return core.Assemble(net, snap, reg)
}

// newClassRecord builds the ClassRecord of a class (its members,
// representative first) from what the sweep settled for the
// representative: the verdicts, the pass's time and the Record it
// answered with.
func newClassRecord(members []string, verdicts []dist.RouterSummary, simTime time.Duration, pass *dist.Record) ClassRecord {
	rec := ClassRecord{Members: slices.Sorted(slices.Values(members)), Verdicts: verdicts, SimTime: simTime, Record: *pass}
	// Widen the taint with every device the report names: invalidation
	// soundness then holds by construction — a report cannot mention a
	// device outside its own record's taint.
	devs := slices.Clone(pass.TaintDevices)
	sum, viols := rec.Report("")
	if sum.WeakestRouter != "" {
		devs = append(devs, sum.WeakestRouter)
	}
	for _, v := range viols {
		devs = append(devs, v.Router)
	}
	slices.Sort(devs)
	rec.TaintDevices = slices.Compact(devs)
	return rec
}

// incrementalPlan is the outcome of diffing the new model against a
// baseline store: which classes replay their cached record and which
// must re-simulate.
type incrementalPlan struct {
	// dirty[i] is true when class i (index into model.Classes()) must be
	// re-simulated.
	dirty []bool
	// records[i] is the baseline record for class i (nil for dirty
	// classes with no baseline match).
	records []*ClassRecord
	delta   *core.ModelDelta
	stats   *core.InvalidationStats
}

// planIncremental decides, class by class, whether the baseline record
// can be replayed. It never fails: anything that prevents a sound replay
// (options mismatch, unparseable baseline, full-invalidation delta kinds)
// degrades to re-simulating everything, with the reason recorded loudly
// in the returned stats.
func planIncremental(model *core.Model, classes []core.PrefixClass,
	store *ResultStore, opts Options, reg *behavior.Registry) *incrementalPlan {
	plan := &incrementalPlan{
		dirty:   make([]bool, len(classes)),
		records: make([]*ClassRecord, len(classes)),
		stats:   &core.InvalidationStats{DeltaKinds: map[string]int{}},
	}
	allDirty := func(note string) *incrementalPlan {
		for i := range plan.dirty {
			plan.dirty[i] = true
		}
		plan.stats.FullInvalidation = true
		plan.stats.ClassesDirty = len(classes)
		plan.stats.Notes = append(plan.stats.Notes, note)
		return plan
	}

	if h := optionsHash(opts, profilesKey(model.Net, reg)); h != store.OptionsHash {
		return allDirty(fmt.Sprintf("options hash %q does not match baseline %q; full re-sweep", h, store.OptionsHash))
	}
	old, err := store.baselineModel(reg)
	if err != nil {
		return allDirty(fmt.Sprintf("baseline model unusable (%v); full re-sweep", err))
	}
	plan.delta = core.Diff(old, model)
	plan.stats.DeltaKinds = plan.delta.Kinds()
	if plan.delta.Full() {
		return allDirty("delta contains full-invalidation items (topology/process-level change); full re-sweep")
	}

	byMembers := map[string]*ClassRecord{}
	for i := range store.Classes {
		byMembers[membersKey(store.Classes[i].Members)] = &store.Classes[i]
	}
	for i, cls := range classes {
		members := make([]string, len(cls.Members))
		for j, p := range cls.Members {
			members[j] = p.String()
		}
		sort.Strings(members)
		rec := byMembers[membersKey(members)]
		if rec == nil {
			plan.dirty[i] = true // partition shifted here; no baseline match
			continue
		}
		plan.records[i] = rec
		if recordImpacted(rec, members, plan.delta) {
			plan.dirty[i] = true
		}
	}
	for i := range classes {
		if plan.dirty[i] {
			plan.stats.ClassesDirty++
		} else {
			plan.stats.ClassesReplayed++
		}
	}
	return plan
}

// Report is the record's report for one member prefix of its class: the
// stored verdicts through the one fold every report comes out of.
func (rec *ClassRecord) Report(prefix string) (PrefixSummary, []Violation) {
	return foldVerdicts(prefix, rec.Verdicts, rec.SimTime)
}

// anchor is the verdict (and condition root) a replay audit re-checks:
// the fold's weakest router, or the first BGP speaker when nothing breaks
// within the budget.
func (rec *ClassRecord) anchor() int {
	i, _ := scanVerdicts(rec.Verdicts)
	return max(i, 0)
}

// IncrementalPlan is the exported planning outcome: which classes a
// sweep against the baseline would re-simulate and how many it would
// replay, without running any simulation.
type IncrementalPlan struct {
	// DirtyJobs lists the classes to re-simulate: members, representative
	// first, as prefix strings.
	DirtyJobs [][]string
	// ReplayedClasses counts the clean classes.
	ReplayedClasses int
	Stats           *core.InvalidationStats
	Delta           *core.ModelDelta
}

// PlanIncremental diffs the network against a baseline store and splits
// the behavior classes into dirty and replayable without running any
// simulation — the planning step of a sweep with Options.Baseline, on
// its own.
func (n *Network) PlanIncremental(opts Options, store *ResultStore) (*IncrementalPlan, error) {
	if len(n.errs) > 0 {
		return nil, n.errs[0]
	}
	opts, reg, _ := opts.resolve()
	model, err := core.Assemble(n.net, n.snap, reg)
	if err != nil {
		return nil, err
	}
	classes := model.Classes()
	plan := planIncremental(model, classes, store, opts, reg)
	out := &IncrementalPlan{Stats: plan.stats, Delta: plan.delta, ReplayedClasses: plan.stats.ClassesReplayed}
	for i, cls := range classes {
		if plan.dirty[i] {
			out.DirtyJobs = append(out.DirtyJobs, cls.MemberStrings())
		}
	}
	return out, nil
}

// recordImpacted applies the invalidation rule: a delta item dirties a
// class when its scope intersects the class's members/universe (prefix
// scope) or its taint devices (device scope). Items with no scope are
// informational (e.g. data-plane ACL edits) and dirty nothing.
func recordImpacted(rec *ClassRecord, members []string, delta *core.ModelDelta) bool {
	inUniverse := map[string]bool{}
	for _, p := range members {
		inUniverse[p] = true
	}
	for _, p := range rec.Universe {
		inUniverse[p] = true
	}
	tainted := map[string]bool{}
	for _, d := range rec.TaintDevices {
		tainted[d] = true
	}
	for _, it := range delta.Items {
		switch {
		case it.Full:
			return true
		case it.AllPrefixes:
			if tainted[it.Device] || (it.Peer != "" && tainted[it.Peer]) {
				return true
			}
		default:
			for _, p := range it.Prefixes {
				if inUniverse[p.String()] {
					return true
				}
			}
		}
	}
	return false
}
