package httpapi

import (
	"net/http/httptest"
	"testing"

	"hoyan/internal/gen"
	"hoyan/internal/vet"
)

// TestVetEndpoint pins GET /v1/vet against the held model: a clean
// generated WAN is finding-free (the analyzers' false-positive
// contract), analyzer selection narrows the run, and an unknown
// analyzer is a 400, not a 500.
func TestVetEndpoint(t *testing.T) {
	w, err := gen.Generate(gen.Small())
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(w.Net, w.Snap, 3)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	var out vet.Report
	if code := get(t, srv, "/v1/vet", &out); code != 200 {
		t.Fatalf("status %d", code)
	}
	if out.Findings != 0 {
		t.Fatalf("clean WAN has %d findings: %+v", out.Findings, out.Diagnostics)
	}
	if out.Diagnostics == nil {
		t.Fatal("diagnostics must serialize as a list, not null")
	}

	if code := get(t, srv, "/v1/vet?only=cutsound", &out); code != 200 || out.Findings != 0 {
		t.Fatalf("only=cutsound: status %d, findings %d", code, out.Findings)
	}
	if code := get(t, srv, "/v1/vet?only=nosuch", nil); code != 400 {
		t.Fatalf("unknown analyzer status %d, want 400", code)
	}
}
