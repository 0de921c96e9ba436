package bench

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"hoyan"
	"hoyan/internal/gen"
	"hoyan/internal/httpapi"
	"hoyan/internal/logic"
	"hoyan/internal/qc"
)

// QueryMetrics is the query-plane measurement the BENCH_PR7 snapshot
// records: the one-time costs (sweep, compile), the per-condition
// compiled evaluation microbenchmark, and the end-to-end HTTP load test.
type QueryMetrics struct {
	Preset   string
	K        int
	Workers  int
	Classes  int
	Prefixes int
	Programs int

	SweepSeconds float64
	CompileMS    int64

	// EvalNanos/EvalAllocs measure one compiled condition evaluation (the
	// per-query inner loop) on the store's median-size program — the p50
	// condition a query evaluates; EvalMaxNanos/EvalMaxInstrs are the
	// same measurement on the largest program (worst case). Instrs is the
	// program's instruction-form size, Decisions its attached decision
	// diagram's (what Eval actually walks).
	EvalNanos        int64
	EvalAllocs       int64
	EvalInstrs       int
	EvalDecisions    int
	EvalMaxNanos     int64
	EvalMaxInstrs    int
	EvalMaxDecisions int

	// The load test: concurrent closed-loop clients firing a seeded
	// reach/minfail/impact mix at /v1/query over HTTP.
	Clients         int
	DurationSeconds float64
	Queries         int
	Errors          int
	QPS             float64
	P50Micros       float64
	P99Micros       float64
}

// QueryLoad measures the query plane end to end on one generated WAN:
// sweep once, compile and publish the store, then drive GET /v1/query
// with a seeded mix (60% reach under random ≤K failure sets, 20%
// min-failures, 20% link impact) from `clients` concurrent closed-loop
// clients for `duration`. Latency is per-request wall clock including
// HTTP; the compiled-eval microbenchmark isolates the evaluation itself.
func QueryLoad(params gen.Params, k, workers, clients int, duration time.Duration, seed int64) (Table, *QueryMetrics, error) {
	if clients <= 0 {
		clients = 4
	}
	if duration <= 0 {
		duration = 5 * time.Second
	}
	w, err := gen.Generate(params)
	if err != nil {
		return Table{}, nil, err
	}
	n := hoyan.NetworkFrom(w.Net, w.Snap)
	t0 := time.Now()
	_, store, err := n.SweepBaseline(hoyan.Options{K: k}, workers)
	if err != nil {
		return Table{}, nil, fmt.Errorf("baseline sweep: %w", err)
	}
	m := &QueryMetrics{K: k, Workers: workers, Clients: clients, SweepSeconds: time.Since(t0).Seconds()}

	snap, err := qc.CompileStore(store)
	if err != nil {
		return Table{}, nil, fmt.Errorf("compile store: %w", err)
	}
	m.Classes = snap.Stats.Classes
	m.Prefixes = snap.Stats.Prefixes
	m.Programs = snap.Stats.Programs
	m.CompileMS = snap.Stats.CompileTime.Milliseconds()

	// Microbenchmark: one condition evaluation on the median-size program
	// (what a typical query pays) and on the largest (the worst case).
	var progs []*qc.Program
	for _, cls := range snap.Classes {
		progs = append(progs, cls.Progs...)
	}
	sort.Slice(progs, func(i, j int) bool { return progs[i].NumInstrs() < progs[j].NumInstrs() })
	median, worst := progs[len(progs)/2], progs[len(progs)-1]
	fs := snap.NewFailureSet()
	sc := snap.NewScratch()
	evalBench := func(p *qc.Program) (int64, int64) {
		fs.Reset()
		if vs := p.Vars(); len(vs) > 0 {
			fs.Add(vs[len(vs)/2])
		}
		p.Eval(fs, sc)
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p.Eval(fs, sc)
			}
		})
		return r.NsPerOp(), r.AllocsPerOp()
	}
	m.EvalInstrs = median.NumInstrs()
	m.EvalDecisions = median.NumDecisions()
	m.EvalNanos, m.EvalAllocs = evalBench(median)
	m.EvalMaxInstrs = worst.NumInstrs()
	m.EvalMaxDecisions = worst.NumDecisions()
	m.EvalMaxNanos, _ = evalBench(worst)

	// The served plane: a real Service with the store published, behind a
	// real HTTP listener.
	svc, err := httpapi.New(w.Net, w.Snap, k)
	if err != nil {
		return Table{}, nil, err
	}
	if _, err := svc.PublishStore(store); err != nil {
		return Table{}, nil, err
	}
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	deck := buildDeck(snap, k, seed)
	queries, errors, lat, elapsed := fire(srv.URL, deck, clients, duration)
	m.Queries = queries
	m.Errors = errors
	m.DurationSeconds = elapsed.Seconds()
	if elapsed > 0 {
		m.QPS = float64(queries) / elapsed.Seconds()
	}
	if len(lat) > 0 {
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		m.P50Micros = float64(lat[len(lat)/2].Microseconds())
		m.P99Micros = float64(lat[len(lat)*99/100].Microseconds())
	}

	t := Table{
		Title:  fmt.Sprintf("Query plane — compiled snapshot over %d classes / %d prefixes (k=%d)", m.Classes, m.Prefixes, k),
		Header: []string{"stage", "value"},
	}
	t.Rows = append(t.Rows,
		[]string{"baseline sweep", fmt.Sprintf("%.2fs (one-time)", m.SweepSeconds)},
		[]string{"compile + precompute", fmt.Sprintf("%dms, %d programs", m.CompileMS, m.Programs)},
		[]string{"compiled eval (median condition)", fmt.Sprintf("%dns, %d allocs, %d instrs, %d decisions", m.EvalNanos, m.EvalAllocs, m.EvalInstrs, m.EvalDecisions)},
		[]string{"compiled eval (largest condition)", fmt.Sprintf("%dns, %d instrs, %d decisions", m.EvalMaxNanos, m.EvalMaxInstrs, m.EvalMaxDecisions)},
		[]string{"load test", fmt.Sprintf("%d clients × %.1fs", clients, m.DurationSeconds)},
		[]string{"throughput", fmt.Sprintf("%.0f queries/sec (%d total, %d errors)", m.QPS, queries, errors)},
		[]string{"latency p50 / p99", fmt.Sprintf("%.0fµs / %.0fµs", m.P50Micros, m.P99Micros)},
	)
	return t, m, nil
}

// buildDeck precomputes a shuffled request mix so client goroutines do
// no string formatting inside the measured loop.
func buildDeck(snap *qc.Snapshot, k int, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	var prefixes, routers []string
	for _, cls := range snap.Classes {
		prefixes = append(prefixes, cls.Members...)
		if routers == nil {
			routers = cls.Routers
		}
	}
	nLinks := snap.Stats.Links
	var deck []string
	for i := 0; i < 4096; i++ {
		p := prefixes[rng.Intn(len(prefixes))]
		r := routers[rng.Intn(len(routers))]
		switch draw := rng.Intn(10); {
		case draw < 6: // reach
			var failed []string
			for j := rng.Intn(k + 1); j > 0; j-- {
				failed = append(failed, snap.LinkName(logic.Var(rng.Intn(nLinks))))
			}
			q := "/v1/query?kind=reach&prefix=" + p + "&router=" + r
			if len(failed) > 0 {
				q += "&failed=" + strings.Join(failed, ",")
			}
			deck = append(deck, q)
		case draw < 8: // minfail, half per-router half class-aggregate
			q := "/v1/query?kind=minfail&prefix=" + p
			if rng.Intn(2) == 0 {
				q += "&router=" + r
			}
			deck = append(deck, q)
		default: // impact
			deck = append(deck, "/v1/query?kind=impact&link="+snap.LinkName(logic.Var(rng.Intn(nLinks))))
		}
	}
	return deck
}

// fire runs the closed-loop clients and returns totals plus per-request
// latencies.
func fire(base string, deck []string, clients int, duration time.Duration) (int, int, []time.Duration, time.Duration) {
	transport := &http.Transport{MaxIdleConns: clients * 2, MaxIdleConnsPerHost: clients * 2}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport, Timeout: 10 * time.Second}

	var wg sync.WaitGroup
	results := make([][]time.Duration, clients)
	errCounts := make([]int, clients)
	deadline := time.Now().Add(duration)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			lat := make([]time.Duration, 0, 1<<16)
			i := c * len(deck) / clients
			for time.Now().Before(deadline) {
				q := deck[i%len(deck)]
				i++
				r0 := time.Now()
				resp, err := client.Get(base + q)
				if err != nil {
					errCounts[c]++
					continue
				}
				if resp.StatusCode != http.StatusOK {
					errCounts[c]++
				}
				// Drain so the connection is reused.
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				lat = append(lat, time.Since(r0))
			}
			results[c] = lat
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var all []time.Duration
	errs := 0
	for c := 0; c < clients; c++ {
		all = append(all, results[c]...)
		errs += errCounts[c]
	}
	return len(all), errs, all, elapsed
}
