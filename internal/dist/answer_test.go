package dist

import (
	"encoding/json"
	"testing"

	"hoyan/internal/core"
	"hoyan/internal/gen"
	"hoyan/internal/logic"
)

// cutPasses answers home passes on a gen.Small worker until one exports
// routes across its cut, and returns the worker, that home request and an
// import request carrying the summary it captured into another region.
func cutPasses(t testing.TB) (*Worker, Request, Request) {
	t.Helper()
	wa, err := gen.Generate(gen.Small())
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorker(wa.Net, wa.Snap)
	plan := modularPlan(t, wa, 1)
	for _, c := range plan.Classes {
		if c.Home == "" {
			continue
		}
		home := Request{Prefix: c.Members[0], K: 1, Region: c.Home}
		resp := w.answer(home, &connSim{})
		if resp.Error != "" || resp.Refused != "" {
			t.Fatalf("home pass of %s in %s: %q %q", home.Prefix, home.Region, resp.Error, resp.Refused)
		}
		if resp.Summary == nil || len(resp.Summary.Msgs) == 0 {
			continue
		}
		for _, r := range plan.Regions {
			if r != c.Home {
				return w, home, Request{Prefix: home.Prefix, K: 1, Region: r, Summary: resp.Summary}
			}
		}
	}
	t.Fatal("no home pass on gen.Small exports a route across its cut")
	return nil, Request{}, Request{}
}

// TestWorkerRejectsMalformedSummary: a summary arrives off the wire, so
// one that names no conditions, a condition it does not carry, or a
// variable beyond the model's links is a pass error — not a panic that
// takes the worker process down, and not a variable cache grown to the
// named index. The connection's simulator answers the well-formed import
// pass after each.
func TestWorkerRejectsMalformedSummary(t *testing.T) {
	w, _, imp := cutPasses(t)
	good := imp.Summary
	var farVar logic.Portable
	if err := farVar.UnmarshalJSON([]byte(`{"n":[[1,1048576,0,0]],"r":[2]}`)); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		mutate func(*core.CutSummary)
	}{
		{"no conditions", func(s *core.CutSummary) { s.Conds = nil }},
		{"condition beyond the roots", func(s *core.CutSummary) { s.Msgs[0].Cond = s.Conds.NumRoots() }},
		{"condition below zero", func(s *core.CutSummary) { s.Msgs[0].Cond = -1 }},
		{"variable beyond the links", func(s *core.CutSummary) {
			s.Conds = &farVar
			for i := range s.Msgs {
				s.Msgs[i].Cond = 0
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sum := *good
			sum.Msgs = append([]core.CutMsg(nil), good.Msgs...)
			tc.mutate(&sum)
			bad := imp
			bad.Summary = &sum
			cs := &connSim{}
			if resp := w.answer(bad, cs); resp.Error == "" {
				t.Fatalf("answered %+v", resp)
			}
			if resp := w.answer(imp, cs); resp.Error != "" || resp.Refused != "" || len(resp.Summaries) == 0 {
				t.Fatalf("the well-formed import pass after it: %+v", resp)
			}
		})
	}
}

// FuzzWorkerAnswer decodes arbitrary bytes as a Request and answers it on
// a gen.Small worker: no input panics the worker, and every answer is
// exactly one of verdicts, a refusal or an error.
func FuzzWorkerAnswer(f *testing.F) {
	w, home, imp := cutPasses(f)
	for _, req := range []Request{home, imp} {
		b, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var req Request
		if json.Unmarshal(data, &req) != nil {
			return
		}
		resp := w.answer(req, &connSim{})
		switch {
		case resp.Error != "" && resp.Refused != "":
			t.Fatalf("both an error and a refusal: %+v", resp)
		case resp.Error == "" && resp.Refused == "" && len(resp.Summaries) == 0:
			t.Fatalf("neither verdicts, a refusal nor an error: %+v", resp)
		}
	})
}
