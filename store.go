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
	"sync"

	"hoyan/internal/behavior"
	"hoyan/internal/config"
	"hoyan/internal/core"
	"hoyan/internal/dist"
	"hoyan/internal/igp"
	"hoyan/internal/topo"
	"hoyan/internal/work"
)

// ClassRecord is what one simulation of a behavior class's
// representative said, plus the dependency data an incremental sweep
// needs to decide whether a model delta can change it: the per-router
// verdicts the scheduler settled (everything a report, a replay audit and
// the query plane's fixed answers are folded or read from) and the
// pass's dist.Record — the reachability conditions behind the verdicts
// as one factory-independent logic.Portable, the devices the simulation
// actually consulted (core.Taint) widened here with every device the
// report names, and the prefix universe of the run. A new model's class
// is matched to a record by member (replayRule), not by behavior
// fingerprint or whole membership: unrelated config edits can rewrite
// every fingerprint string, and an edit that splits or merges a class
// leaves most of its members' simulations alone.
type ClassRecord struct {
	// Members are the class's prefixes, sorted.
	Members []string `json:"members"`
	// Verdicts are the representative's verdicts at every BGP speaker, in
	// node order: reachable with all links up, and the min failures that
	// break it clipped to the sweep's K (-1 beyond it) — what the pass
	// answered (dist.Response.Summaries), stored as it was.
	Verdicts []dist.RouterSummary `json:"verdicts"`
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
	// model is the model the records were swept on, kept in-process like
	// igp, under modelMu: the capturing sweep's, or the one baselineModel
	// builds for a loaded store. Its topology and devices never change
	// (topo.Network, config.Device), so core.Diff and the next capture
	// skip whatever the next sweep's model shares with it.
	model *core.Model
}

// modelMu guards ResultStore.model, which concurrent resweeps share.
var modelMu sync.Mutex

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
// Records are independent: up to GOMAXPROCS goroutines take them from
// one queue (internal/work), largest condition set first, and each
// record's bytes go into its own slot.
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
	work.Run(len(st.Classes), runtime.GOMAXPROCS(0), func(i int) int { return st.Classes[i].Conds.NumNodes() },
		func(i int) { recs[i], errs[i] = encodeRecord(&st.Classes[i]) })
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

// newStoreShell captures the model side of a store (the swept model,
// and its topology and configs for the file); class records are appended
// by the sweep. texts (configTexts) becomes the store's Configs.
func newStoreShell(model *core.Model, opts Options, reg *behavior.Registry, texts map[string]string) *ResultStore {
	net := model.Net
	st := &ResultStore{
		OptionsHash: optionsHash(opts, profilesKey(net, reg)),
		K:           opts.K,
		Configs:     texts,
		model:       model,
	}
	for _, node := range net.Nodes() {
		st.Nodes = append(st.Nodes, *node)
	}
	for _, l := range net.Links() {
		st.Links = append(st.Links, StoredLink{
			A: net.Node(l.A).Name, B: net.Node(l.B).Name, Weight: l.Weight,
		})
	}
	return st
}

// keptModel is the model st keeps (nil for a nil store, or a loaded one
// not yet diffed against), read under modelMu.
func (st *ResultStore) keptModel() *core.Model {
	if st == nil {
		return nil
	}
	modelMu.Lock()
	defer modelMu.Unlock()
	return st.model
}

// holds reports whether model m was assembled with dev as the router
// name's device: the one identity test between a network and a kept
// model (Network.assemble, configTexts).
func holds(m *core.Model, name string, dev *config.Device) bool {
	id, ok := m.Resolve(name)
	return ok && m.Configs[id] == dev
}

// configTexts writes every device of the network's snapshot once per
// sweep, for the plan's model hash and the captured store: config.Write
// of each device, except that a device the baseline store's model also
// holds keeps the text that store wrote for it.
func (n *Network) configTexts(base *ResultStore) map[string]string {
	kept := base.keptModel()
	texts := make(map[string]string, len(n.snap))
	for name, dev := range n.snap {
		if kept != nil && holds(kept, name, dev) {
			texts[name] = base.Configs[name]
			continue
		}
		texts[name] = config.Write(dev)
	}
	return texts
}

// baselineModel is the model the store's records were swept on: the one
// the capturing sweep kept, or, for a store loaded off disk, one rebuilt
// from Nodes, Links and Configs on first use (under the caller's
// registry, whose profiles the options hash has matched) and kept. Node
// IDs are re-assigned in stored order; every other node attribute
// round-trips exactly (topo.AddNode only auto-assigns a zero RouterID).
func (st *ResultStore) baselineModel(reg *behavior.Registry) (*core.Model, error) {
	modelMu.Lock()
	defer modelMu.Unlock()
	if st.model != nil {
		return st.model, nil
	}
	net := topo.NewNetwork()
	for _, node := range st.Nodes {
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
	snap := make(config.Snapshot, len(st.Configs))
	for name, text := range st.Configs {
		d, err := config.Parse(text)
		if err != nil {
			return nil, fmt.Errorf("hoyan: baseline config for %s: %w", name, err)
		}
		snap[name] = d
	}
	m, err := core.Assemble(net, snap, reg)
	st.model = m
	return m, err
}

// newClassRecord builds the ClassRecord of a class (its members,
// representative first) from what the sweep settled for the
// representative: the verdicts and the Record it answered with. It keeps
// no timing, so two saves of one sweep's network write the same bytes.
func newClassRecord(members []string, verdicts []dist.RouterSummary, pass *dist.Record) ClassRecord {
	rec := ClassRecord{Members: slices.Sorted(slices.Values(members)), Verdicts: verdicts, Record: *pass}
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
	// records[i] is the record class i (index into model.Classes())
	// replays: a baseline record, or a copy of one naming the class's
	// members (ClassRecord.rematch). nil when the class must be
	// re-simulated.
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
		records: make([]*ClassRecord, len(classes)),
		stats:   &core.InvalidationStats{DeltaKinds: map[string]int{}},
	}
	allDirty := func(note string) *incrementalPlan {
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
	plan.stats.DevicesCompared = plan.delta.DevicesCompared
	if plan.delta.Full() {
		return allDirty("delta contains full-invalidation items (topology/process-level change); full re-sweep")
	}

	spared := newReplayRule(plan.delta)
	byMember := make(map[string]*ClassRecord, len(store.Classes))
	for i := range store.Classes {
		for _, p := range store.Classes[i].Members {
			byMember[p] = &store.Classes[i]
		}
	}
	for i, cls := range classes {
		members := cls.MemberStrings()
		for _, m := range members {
			if rec := byMember[m]; rec != nil && spared.leaves(rec, m) {
				plan.records[i] = rec.rematch(members)
				if plan.records[i] != rec {
					plan.stats.ClassesRematched++
				}
				break
			}
		}
		if plan.records[i] == nil {
			plan.stats.ClassesDirty++
		} else {
			plan.stats.ClassesReplayed++
		}
	}
	return plan
}

// Report is the record's report for one member prefix of its class: the
// stored verdicts through the one fold every report comes out of. A
// record stores no time, so the summary's SimTime is 0.
func (rec *ClassRecord) Report(prefix string) (PrefixSummary, []Violation) {
	return foldVerdicts(prefix, rec.Verdicts, 0)
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
	opts, reg, _ := opts.resolve()
	model, err := n.assemble(opts, reg, store)
	if err != nil {
		return nil, err
	}
	classes := model.Classes()
	plan := planIncremental(model, classes, store, opts, reg)
	out := &IncrementalPlan{Stats: plan.stats, Delta: plan.delta, ReplayedClasses: plan.stats.ClassesReplayed}
	for i, cls := range classes {
		if plan.records[i] == nil {
			out.DirtyJobs = append(out.DirtyJobs, cls.MemberStrings())
		}
	}
	return out, nil
}

// replayRule is the invalidation rule of one delta, read per member: a
// baseline record R answers for prefix m of a new model when m was one
// of R's members and no item can change m's simulation. A device item
// (AllPrefixes) changes it when its device or peer is in R's taint; a
// prefix item when it names m itself or one of R's context prefixes (its
// universe minus its members, the routes every member's simulation
// shares). Items with no scope change nothing. m then simulates in the
// new model as in the old, where it simulated as R's representative did,
// and every member of m's new class shares m's fingerprint, so R answers
// for that whole class. Full items never reach here: planIncremental
// re-simulates everything on them.
type replayRule struct {
	devices map[string]bool // Device and Peer of every device item
	named   map[string]bool // every prefix a prefix item names
}

func newReplayRule(delta *core.ModelDelta) *replayRule {
	r := &replayRule{devices: map[string]bool{}, named: map[string]bool{}}
	for _, it := range delta.Items {
		if it.AllPrefixes {
			r.devices[it.Device] = true
			if it.Peer != "" {
				r.devices[it.Peer] = true
			}
		}
		for _, p := range it.Prefixes {
			r.named[p.String()] = true
		}
	}
	return r
}

// leaves reports whether the delta leaves m's simulation as rec recorded
// it.
func (r *replayRule) leaves(rec *ClassRecord, m string) bool {
	return !r.named[m] &&
		!slices.ContainsFunc(rec.TaintDevices, func(d string) bool { return r.devices[d] }) &&
		!slices.ContainsFunc(rec.Universe, func(p string) bool { return r.named[p] && !slices.Contains(rec.Members, p) })
}

// context is the record's universe minus its members: the prefixes whose
// routes join every member's simulation verbatim.
func (rec *ClassRecord) context() []string {
	return slices.DeleteFunc(slices.Clone(rec.Universe), func(p string) bool {
		return slices.Contains(rec.Members, p)
	})
}

// rematch is rec as the record of a class with members (representative
// first): rec itself when the members are its own, else a copy naming
// them, whose universe is rec's context plus the new representative —
// what a simulation of that representative records. Verdicts, taint and
// conditions are shared: they are the same for every member.
func (rec *ClassRecord) rematch(members []string) *ClassRecord {
	sorted := slices.Sorted(slices.Values(members))
	if slices.Equal(sorted, rec.Members) {
		return rec
	}
	out := *rec
	out.Members = sorted
	out.Universe = append(rec.context(), members[0])
	slices.Sort(out.Universe)
	return &out
}
