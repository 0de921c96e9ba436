package hoyan

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"hoyan/internal/dist"
	"hoyan/internal/gen"
	"hoyan/internal/logic"
	"hoyan/internal/topo"
)

// saveBytes saves st into a fresh directory and returns the file's bytes
// and path.
func saveBytes(t testing.TB, dir string, st *ResultStore) ([]byte, string) {
	t.Helper()
	path := filepath.Join(dir, "store.json")
	if err := st.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return got, path
}

// craftedStore covers what the sweep stores in the pin below never hold:
// strings encoding/json escapes (<, >, & and non-ASCII), a record without
// conditions, empty omitempty fields, and quarantined records, which are
// never persisted.
func craftedStore() *ResultStore {
	f := logic.NewFactory()
	x := f.And(f.Var(0), f.Or(f.Var(1), f.Not(f.Var(2))))
	return &ResultStore{
		OptionsHash: "k=1;<profiles>&\"tuned\"",
		K:           1,
		Nodes:       []topo.Node{{ID: 0, Name: "pe<0>&ü", Vendor: "v&<>", Region: "東京"}, {ID: 1, Name: "p1"}},
		Links:       []StoredLink{{A: "pe<0>&ü", B: "p1", Weight: 10}},
		Configs:     map[string]string{"pe<0>&ü": "hostname pe<0>&ü\n", "p1": "hostname p1\n\t# é\n"},
		Classes: []ClassRecord{
			{
				Members:  []string{"10.0.0.0/24", "<x>&y"},
				Verdicts: []dist.RouterSummary{{Router: "pe<0>&ü", Reachable: true, MinFailures: 1}, {Router: "p1", Node: 1, MinFailures: -1}},
				Record:   dist.Record{TaintDevices: []string{"p1", "pe<0>&ü"}, Conds: f.Export(x, logic.True)},
			},
			{
				Members: []string{"192.0.2.0/24"},
				SimTime: 3 * time.Millisecond,
				Record:  dist.Record{TaintDevices: []string{"p1"}, Universe: []string{"192.0.2.0/24", "ü"}},
			},
		},
		Quarantined: []QuarantinedRecord{{Index: 2, Reason: "no members", Record: ClassRecord{SimTime: 1}}},
	}
}

// TestSaveMatchesMarshal pins Save's file to json.Marshal(st), byte for
// byte, so that stores written before and after the encoder was split up
// read the same, and checks that LoadResultStore reads the file back into
// a store that marshals to the same bytes.
func TestSaveMatchesMarshal(t *testing.T) {
	stores := map[string]*ResultStore{
		"classes nil":   {OptionsHash: "h", K: 1},
		"classes empty": {OptionsHash: "h", K: 1, Classes: []ClassRecord{}},
		"crafted":       craftedStore(),
	}
	for _, tc := range []struct {
		name   string
		params gen.Params
		k      int
	}{{"small-k1", gen.Small(), 1}, {"medium-k2", gen.Medium(), 2}} {
		if tc.name == "medium-k2" && testing.Short() {
			continue
		}
		w, err := gen.Generate(tc.params)
		if err != nil {
			t.Fatal(err)
		}
		_, st, err := NetworkFrom(w.Net, w.Snap).SweepBaseline(Options{K: tc.k}, 2)
		if err != nil {
			t.Fatal(err)
		}
		stores[tc.name] = st
	}
	for name, st := range stores {
		t.Run(name, func(t *testing.T) {
			want, err := json.Marshal(st)
			if err != nil {
				t.Fatal(err)
			}
			got, path := saveBytes(t, t.TempDir(), st)
			if !bytes.Equal(got, want) {
				i := 0
				for i < min(len(got), len(want)) && got[i] == want[i] {
					i++
				}
				t.Fatalf("Save wrote %d bytes, json.Marshal %d; first difference at byte %d: %.60q vs %.60q",
					len(got), len(want), i, got[i:], want[i:])
			}
			loaded, err := LoadResultStore(path)
			if err != nil {
				t.Fatal(err)
			}
			again, err := json.Marshal(loaded)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again, want) {
				t.Fatal("the loaded store does not marshal to the bytes Save wrote")
			}
		})
	}
}

// fuzzReader hands out the fuzz input a byte or a string at a time; an
// exhausted input reads as zeros and empty strings.
type fuzzReader []byte

func (r *fuzzReader) byte() byte {
	if len(*r) == 0 {
		return 0
	}
	c := (*r)[0]
	*r = (*r)[1:]
	return c
}

func (r *fuzzReader) str() string {
	n := min(int(r.byte()%12), len(*r))
	s := string((*r)[:n])
	*r = (*r)[n:]
	return s
}

func (r *fuzzReader) strs() []string {
	n := int(r.byte() % 4)
	if n == 3 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = r.str()
	}
	return out
}

// conds builds a condition set of up to 7 roots over up to 12 nodes, or
// none, or one decoded from the wire with null roots.
func (r *fuzzReader) conds() *logic.Portable {
	switch r.byte() % 8 {
	case 0:
		return nil
	case 1:
		p := &logic.Portable{}
		if err := json.Unmarshal([]byte(`{"n":[[1,3,0,0]],"r":null}`), p); err != nil {
			panic(err)
		}
		return p
	}
	f := logic.NewFactory()
	built := []logic.F{logic.False, logic.True}
	for range int(r.byte() % 12) {
		a, b := built[int(r.byte())%len(built)], built[int(r.byte())%len(built)]
		var x logic.F
		switch r.byte() % 4 {
		case 0:
			x = f.Var(logic.Var(r.byte() % 40))
		case 1:
			x = f.Not(a)
		case 2:
			x = f.And(a, b)
		default:
			x = f.Or(a, b)
		}
		built = append(built, x)
	}
	roots := make([]logic.F, r.byte()%8)
	for i := range roots {
		roots[i] = built[int(r.byte())%len(built)]
	}
	return f.Export(roots...)
}

// FuzzStoreEncode builds stores from the fuzz input — arbitrary strings,
// verdicts, condition sets, and nil and empty slices in every field that
// has one — and asserts that Save writes exactly json.Marshal's bytes.
func FuzzStoreEncode(f *testing.F) {
	f.Add([]byte{})
	// One class: members ["<&>"], two conditions over variable 5, and a
	// verdict at router "é".
	f.Add([]byte("\x00\x03\x00\x00\x01\x01\x03<&>\x00\x00\x03\x02\x02\x00\x00\x00\x05\x02\x01\x02\x02\x03\x02\x01\x02\xc3\xa9\x00\x01\x01\x00"))
	f.Add([]byte("\x02\x05<&>\xff\x00\x03\x02\x04abcd\x01\x07\x06\x02\x03\x04\x01\x00"))
	f.Add([]byte("\x01\x03\x08\x09\x0a\x05\x06\xe6\x97\xa5\x02\x01\x07\x02\x03\x00\x05\x01\x02"))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := fuzzReader(data)
		st := &ResultStore{OptionsHash: r.str(), K: int(r.byte()) - 2}
		if r.byte()%2 == 1 {
			st.Configs = map[string]string{r.str(): r.str(), r.str(): r.str()}
		}
		for range int(r.byte() % 3) {
			st.Nodes = append(st.Nodes, topo.Node{ID: topo.NodeID(r.byte()), Name: r.str(), Region: r.str()})
			st.Links = append(st.Links, StoredLink{A: r.str(), B: r.str(), Weight: uint32(r.byte())})
		}
		switch n := int(r.byte() % 5); n {
		case 4: // Classes nil
		default:
			st.Classes = make([]ClassRecord, n)
		}
		for i := range st.Classes {
			rec := &st.Classes[i]
			rec.Members = r.strs()
			rec.SimTime = time.Duration(r.byte()) - 1
			rec.TaintDevices = r.strs()
			rec.Universe = r.strs()
			rec.Conds = r.conds()
			for range int(r.byte() % 4) {
				rec.Verdicts = append(rec.Verdicts, dist.RouterSummary{
					Router: r.str(), Node: topo.NodeID(r.byte()), Reachable: r.byte()%2 == 1, MinFailures: int(r.byte()) - 1,
				})
			}
		}
		if r.byte()%2 == 1 {
			st.Quarantined = []QuarantinedRecord{{Index: 1, Reason: r.str()}}
		}
		want, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := saveBytes(t, t.TempDir(), st); !bytes.Equal(got, want) {
			t.Fatalf("Save wrote\n%q\njson.Marshal\n%q", got, want)
		}
	})
}
