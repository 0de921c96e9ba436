package dist

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"hoyan/internal/behavior"
	"hoyan/internal/core"
	"hoyan/internal/gen"
	"hoyan/internal/igp"
	"hoyan/internal/netaddr"
)

// modelPlan is the capture plan SweepBaseline dispatches for the WAN of
// p at budget k: every class of the assembled model, in Model.Classes
// order, each answering with its Record.
func modelPlan(t testing.TB, p gen.Params, k int) *Plan {
	t.Helper()
	wa, err := gen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.Assemble(wa.Net, wa.Snap, behavior.TrueProfiles())
	if err != nil {
		t.Fatal(err)
	}
	plan := &Plan{K: k, ModelHash: ModelHash(wa.Net, wa.Snap), Model: m, Capture: true}
	for _, cls := range m.Classes() {
		plan.Classes = append(plan.Classes, Class{Members: cls.MemberStrings()})
	}
	return plan
}

// originsOf names the family origins of a class's representative.
func originsOf(t testing.TB, plan *Plan, c Class) string {
	t.Helper()
	p, err := netaddr.Parse(c.Members[0])
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprint(plan.Model.FamilyOrigins(p))
}

// scriptPool is n executors that answer every pass at once with no
// verdicts, logging the prefixes each was handed in order. With stall
// set, the first pass any of them is handed blocks until stall is
// closed.
type scriptPool struct {
	n     int
	stall chan struct{}

	mu       sync.Mutex
	order    [][]string
	stalled  bool
	answered int
}

func (s *scriptPool) open(*Plan, int) ([]executor, Options, *igp.Memo, error) {
	s.order = make([][]string, s.n)
	execs := make([]executor, s.n)
	for i := range execs {
		execs[i] = &scriptExec{id: i, pool: s}
	}
	return execs, Options{MaxAttempts: 1, MaxConnFailures: 1}.withDefaults(), nil, nil
}

func (s *scriptPool) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.answered
}

type scriptExec struct {
	id   int
	pool *scriptPool
}

func (e *scriptExec) name() string          { return fmt.Sprintf("script/%d", e.id) }
func (e *scriptExec) connect(Options) error { return nil }
func (e *scriptExec) disconnect()           {}
func (e *scriptExec) interrupt()            {}

func (e *scriptExec) do(req Request, _ Options) (Response, error, error) {
	s := e.pool
	s.mu.Lock()
	stall := s.stall != nil && !s.stalled
	s.stalled = s.stalled || stall
	s.order[e.id] = append(s.order[e.id], req.Prefix)
	s.mu.Unlock()
	if stall {
		<-s.stall
	}
	s.mu.Lock()
	s.answered++
	s.mu.Unlock()
	return Response{Prefix: req.Prefix, Region: req.Region}, nil, nil
}

// TestOriginAffinity pins how Run hands passes to idle executors
// (DESIGN.md, "Recycling"): an executor runs on through the passes of its
// last pass's (family origins, region) key, and the other executors take
// keys no busy executor holds.
//
//   - The classes-k2 shape (64 one-prefix classes, 4 from each of 16
//     gateways) over Local(1), Local(2) and Local(4) keeps at least 48,
//     47 and 45 of its 64 factories, with the verdicts and records of
//     Local(1). 48 is every pass but a gateway's first. Local(2) loses
//     at most one more: an executor joins the other's key only when no
//     other key is left. At Local(4) up to three executors run out of
//     keys before the end, and which key each joins, and how often, follows
//     which passes finish first: one run in twenty keeps 44, more under the
//     race detector. That pin takes the best of five runs.
//   - compile-k3 (every class from a gateway of its own) and gen.Medium
//     K=2 keep none.
//   - A plan without a Model dispatches in plan order; with one, a lone
//     executor runs each key's passes back to back.
//   - No executor sits idle while a pass is ready, and a stalled executor
//     does not hold back the rest of its key's run: with one executor
//     stuck on the first pass, the other answers every other pass.
func TestOriginAffinity(t *testing.T) {
	t.Run("classes-k2", func(t *testing.T) {
		plan := modelPlan(t, classesK2, 2)
		ref, err := Run(plan, Local(1))
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			pool Local
			min  int
			runs int
		}{{1, 48, 1}, {2, 47, 1}, {4, 45, 5}} {
			best := 0
			for range tc.runs {
				res := ref
				if tc.pool != 1 {
					if res, err = Run(plan, tc.pool); err != nil {
						t.Fatal(err)
					}
				}
				t.Logf("Local(%d): %d of %d passes kept the factory", tc.pool, res.KeptPasses, len(plan.Classes))
				best = max(best, res.KeptPasses)
				if !reflect.DeepEqual(res.ByPrefix, ref.ByPrefix) || !reflect.DeepEqual(res.Records, ref.Records) {
					t.Errorf("Local(%d) answers differ from Local(1)'s", tc.pool)
				}
			}
			if best < tc.min {
				t.Errorf("Local(%d) kept at most %d factories in %d runs, want at least %d", tc.pool, best, tc.runs, tc.min)
			}
		}
	})

	t.Run("no-shared-origins", func(t *testing.T) {
		shapes := []struct {
			name string
			p    gen.Params
			k    int
		}{{"compile-k3", compileK3, 3}, {"gen.Medium", gen.Medium(), 2}}
		if testing.Short() || raceEnabled {
			shapes = shapes[:1]
		}
		for _, sh := range shapes {
			plan := modelPlan(t, sh.p, sh.k)
			for _, pool := range []Local{1, 2} {
				res, err := Run(plan, pool)
				if err != nil {
					t.Fatal(err)
				}
				if res.KeptPasses != 0 {
					t.Errorf("%s over Local(%d) kept %d factories; no two of its classes share origins", sh.name, pool, res.KeptPasses)
				}
			}
		}
	})

	// The classes-k2 classes dealt round-robin across their origins, so
	// plan order alternates keys.
	plan := modelPlan(t, classesK2, 2)
	var runs [][]Class
	at := map[string]int{}
	for _, c := range plan.Classes {
		o := originsOf(t, plan, c)
		i, ok := at[o]
		if !ok {
			i = len(runs)
			at[o] = i
			runs = append(runs, nil)
		}
		runs[i] = append(runs[i], c)
	}
	var dealt []Class
	for round := 0; len(dealt) < len(plan.Classes); round++ {
		for _, r := range runs {
			if round < len(r) {
				dealt = append(dealt, r[round])
			}
		}
	}
	plan.Classes = dealt
	var planOrder []string
	for _, c := range dealt {
		planOrder = append(planOrder, c.Members[0])
	}

	t.Run("fifo-without-model", func(t *testing.T) {
		bare := *plan
		bare.Model = nil
		pool := &scriptPool{n: 1}
		if _, err := Run(&bare, pool); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(pool.order[0], planOrder) {
			t.Fatalf("a Model-less plan dispatched %v, want plan order %v", pool.order[0], planOrder)
		}
		pool = &scriptPool{n: 2}
		if _, err := Run(&bare, pool); err != nil {
			t.Fatal(err)
		}
		for i, got := range pool.order {
			if !slices.IsSortedFunc(got, func(a, b string) int { return slices.Index(planOrder, a) - slices.Index(planOrder, b) }) {
				t.Fatalf("executor %d of a Model-less plan was handed %v, out of plan order", i, got)
			}
		}

		pool = &scriptPool{n: 1}
		if _, err := Run(plan, pool); err != nil {
			t.Fatal(err)
		}
		var want []string
		for _, r := range runs {
			for _, c := range r {
				want = append(want, c.Members[0])
			}
		}
		if !slices.Equal(pool.order[0], want) {
			t.Fatalf("a lone executor ran %v, want each key's run back to back: %v", pool.order[0], want)
		}
	})

	t.Run("stalled-executor", func(t *testing.T) {
		pool := &scriptPool{n: 2, stall: make(chan struct{})}
		done := make(chan error, 1)
		var res *Result
		go func() {
			var err error
			res, err = Run(plan, pool)
			done <- err
		}()
		deadline := time.Now().Add(10 * time.Second)
		for n := pool.count(); n < len(plan.Classes)-1; n = pool.count() {
			if time.Now().After(deadline) {
				close(pool.stall)
				<-done
				t.Fatalf("%d of the other %d passes answered while one executor stalled: the other sat idle", n, len(plan.Classes)-1)
			}
			time.Sleep(time.Millisecond)
		}
		close(pool.stall)
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if len(res.ByPrefix) != len(plan.Classes) {
			t.Fatalf("%d of %d classes settled", len(res.ByPrefix), len(plan.Classes))
		}
	})
}
