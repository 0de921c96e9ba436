// Command hoyanbench regenerates the paper's evaluation tables and figures
// (§8, Appendices E/F) on the synthetic WAN presets and prints them as
// text. See EXPERIMENTS.md for the mapping to the paper and the expected
// shapes.
//
// With -perf LABEL it instead measures the engine's performance
// trajectory — the Figure 8 per-prefix simulation microbenchmark plus
// medium- and full-WAN sweep wall-clock — and records the snapshot under LABEL in
// a JSON file (default BENCH_PR3.json), merging with whatever labels are
// already there. Committing the file after a perf PR keeps a before/after
// record next to the code.
//
// `-exp recovery` measures coordinator crash recovery: a journaled sweep
// session is killed once half its classes are durable, resumed from the
// journal, and the resume wall-clock (replay + re-dispatch of the
// unfinished half) is compared against a cold sweep. Metrics land in
// BENCH_PR6.json (-rec-out) as the recovery_cold / recovery_resumed
// groups; -rec-preset/-rec-iters size the run.
//
// `-exp vet` measures the static configuration-analysis plane: one vet
// pass (all analyzers, min-of-3) against the cold classed sweep it
// front-runs on the same preset. The sweep side simulates a sample of
// behavior classes and extrapolates linearly — flagged as such in the
// snapshot — because a full cold sweep of the xl preset would dwarf the
// experiment. Metrics land in BENCH_PR10.json (-vet-out) as the
// vet_static / vet_cold_sweep / vet_speedup groups;
// -vet-preset/-vet-k/-vet-sample size the run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"hoyan"
	"hoyan/internal/behavior"
	"hoyan/internal/bench"
	"hoyan/internal/config"
	"hoyan/internal/core"
	"hoyan/internal/gen"
)

func main() {
	exp := flag.String("exp", "all", "table1 | table2 | table3 | table4 | table5 | fig7 | fig8-13 | fig14 | fig15-16 | appf | ablations | classes | recovery | vet | all")
	budget := flag.Duration("budget", 60*time.Second, "per-cell budget for baseline comparisons")
	months := flag.Int("months", 24, "campaign months for fig7")
	limit := flag.Int("limit", 24, "prefix sample size for full-WAN experiments (0 = all)")
	perf := flag.String("perf", "", "record a perf-trajectory snapshot under this label and exit")
	perfout := flag.String("perfout", "BENCH_PR3.json", "perf-trajectory JSON file to merge the snapshot into")
	workers := flag.Int("workers", 8, "sweep workers for -perf")
	auditSample := flag.Float64("audit-sample", 0, "-perf: fully simulate this fraction of non-representative class members and diff against replicated results")
	recPreset := flag.String("rec-preset", "medium", "recovery experiment: small | medium | full")
	recIters := flag.Int("rec-iters", 1, "recovery experiment: repetitions per measurement (min-of-N)")
	recOut := flag.String("rec-out", "BENCH_PR6.json", "recovery experiment: JSON snapshot to merge the metrics into (empty = don't write)")
	vetPreset := flag.String("vet-preset", "xl", "vet experiment: small | medium | full | xl")
	vetK := flag.Int("vet-k", 3, "vet experiment: failure budget")
	vetSample := flag.Int("vet-sample", 6, "vet experiment: cold-sweep classes to actually simulate before extrapolating (0 = all)")
	vetOut := flag.String("vet-out", "BENCH_PR10.json", "vet experiment: JSON snapshot to merge the metrics into (empty = don't write)")
	flag.Parse()

	if *perf != "" {
		if err := runPerf(*perf, *perfout, *workers, *auditSample); err != nil {
			fmt.Fprintln(os.Stderr, "hoyanbench:", err)
			os.Exit(1)
		}
		return
	}

	type experiment struct {
		name string
		run  func() (bench.Table, error)
	}
	experiments := []experiment{
		{"table1", bench.Table1Properties},
		{"table2", bench.Table2VSBs},
		{"table3", func() (bench.Table, error) { return bench.Table3FullWAN(gen.Full(), *limit) }},
		{"table4", func() (bench.Table, error) {
			return bench.TableComparison("Table 4 — small subnet (20 routers)", gen.Small(), []int{0, 1, 2, 3}, 2, *budget)
		}},
		{"table5", func() (bench.Table, error) {
			return bench.TableComparison("Table 5 — medium subnet (80 routers)", gen.Medium(), []int{0, 1, 2, 3}, 2, *budget)
		}},
		{"fig7", func() (bench.Table, error) { return bench.Fig7Campaign(gen.Small(), *months) }},
		{"fig8-13", func() (bench.Table, error) { return bench.Fig8to13(gen.Full(), *limit) }},
		{"fig14", func() (bench.Table, error) { return bench.Fig14Accuracy(gen.Small()) }},
		{"fig15-16", func() (bench.Table, error) { return bench.Fig15and16Tuner(gen.Small()) }},
		{"appf", bench.AppendixFFormulas},
		{"ablations", func() (bench.Table, error) { return bench.Ablations(gen.Medium(), *limit) }},
		{"classes", bench.ClassStats},
		{"recovery", func() (bench.Table, error) {
			params, err := presetParams(*recPreset)
			if err != nil {
				return bench.Table{}, err
			}
			tr := bench.TrackPeak()
			t, m, err := bench.RecoverySweep(params, 3, 2, *recIters)
			peak := tr.Stop()
			if err != nil {
				return bench.Table{}, err
			}
			if *recOut != "" {
				if err := writeRecoverySnapshot(*recOut, *recPreset, m, peak); err != nil {
					return bench.Table{}, err
				}
				fmt.Printf("recorded recovery metrics in %s\n", *recOut)
			}
			return t, nil
		}},
		{"vet", func() (bench.Table, error) {
			params, err := presetParams(*vetPreset)
			if err != nil {
				return bench.Table{}, err
			}
			t, m, err := bench.VetStatic(params, *vetK, *vetSample)
			if err != nil {
				return bench.Table{}, err
			}
			if *vetOut != "" {
				if err := writeVetSnapshot(*vetOut, *vetPreset, m); err != nil {
					return bench.Table{}, err
				}
				fmt.Printf("recorded static-vet metrics in %s\n", *vetOut)
			}
			return t, nil
		}},
	}

	ran := false
	for _, e := range experiments {
		if *exp != "all" && *exp != e.name {
			continue
		}
		ran = true
		start := time.Now()
		t, err := e.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "hoyanbench: %s: %v\n", e.name, err)
			os.Exit(1)
		}
		fmt.Print(t.String())
		fmt.Printf("(%s took %s)\n\n", e.name, time.Since(start).Round(time.Millisecond))
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "hoyanbench: unknown experiment %q\n", *exp)
		os.Exit(2)
	}
}

// runPerf measures the perf-trajectory snapshot and merges it into the
// JSON file under label.
func runPerf(label, out string, workers int, auditSample float64) error {
	snap := map[string]any{
		"date":       time.Now().UTC().Format(time.RFC3339),
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
	}

	// Figure 8 microbenchmark: one per-prefix simulation on the full WAN
	// at the default failure budget, allocation-counted.
	w, err := gen.Generate(gen.Full())
	if err != nil {
		return err
	}
	m, err := core.Assemble(w.Net, w.Snap, behavior.TrueProfiles())
	if err != nil {
		return err
	}
	sim := core.NewSimulator(m, core.DefaultOptions())
	p := w.Prefixes()[0]
	// Warm up once so the benchmark reports the steady state (the first
	// run on a fresh simulator pays the one-time IGP propagation) — the
	// same regime `go test -bench` reaches by amortizing over b.N.
	if _, err := sim.Run(p); err != nil {
		return err
	}
	var benchErr error
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sim.Run(p); err != nil {
				benchErr = err
				b.Fatal(err)
			}
		}
	})
	if benchErr != nil {
		return benchErr
	}
	snap["fig8_simulate"] = map[string]any{
		"ns_per_op":     r.NsPerOp(),
		"bytes_per_op":  r.AllocedBytesPerOp(),
		"allocs_per_op": r.AllocsPerOp(),
		"iterations":    r.N,
	}
	fmt.Printf("fig8 simulate: %s\n", r.String()+"\t"+r.MemString())

	// Whole-network sweep wall-clock through the public API, the paper's
	// §8 deployment mode.
	for _, preset := range []struct {
		name   string
		params gen.Params
	}{{"medium", gen.Medium()}, {"full", gen.Full()}} {
		pw, err := gen.Generate(preset.params)
		if err != nil {
			return err
		}
		tr := bench.TrackPeak()
		rep, err := sweepNetwork(pw).Sweep(hoyan.Options{K: 3, AuditSample: auditSample}, workers)
		peak := tr.Stop()
		if err != nil {
			return err
		}
		snap["sweep_"+preset.name] = map[string]any{
			"seconds":         rep.Duration.Seconds(),
			"prefixes":        len(rep.Prefixes),
			"classes":         rep.Classes,
			"audited":         rep.Audited,
			"workers":         rep.Workers,
			"k":               3,
			"peak_heap_bytes": peak.HeapAllocBytes,
			"peak_rss_bytes":  peak.RSSBytes,
		}
		fmt.Printf("sweep %s: %s\n", preset.name, rep)
	}

	doc := map[string]any{}
	if raw, err := os.ReadFile(out); err == nil {
		if err := json.Unmarshal(raw, &doc); err != nil {
			return fmt.Errorf("%s: %w", out, err)
		}
	}
	doc[label] = snap
	enc, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(enc, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("recorded %q in %s\n", label, out)
	return nil
}

// presetParams maps a preset name to its generator parameters.
func presetParams(name string) (gen.Params, error) {
	switch name {
	case "small":
		return gen.Small(), nil
	case "medium":
		return gen.Medium(), nil
	case "full":
		return gen.Full(), nil
	case "xl":
		return gen.XL(), nil
	}
	return gen.Params{}, fmt.Errorf("unknown preset %q", name)
}

// writeRecoverySnapshot merges the crash-recovery metrics into the
// BENCH_PR6-style JSON file: one label per preset, with recovery_cold
// (uninterrupted classed sweep) and recovery_resumed (journal replay +
// re-dispatch after a mid-sweep coordinator kill) groups.
func writeRecoverySnapshot(out, preset string, m *bench.RecoveryMetrics, peak bench.PeakMem) error {
	snap := map[string]any{
		"date":            time.Now().UTC().Format(time.RFC3339),
		"go":              runtime.Version(),
		"gomaxprocs":      runtime.GOMAXPROCS(0),
		"peak_heap_bytes": peak.HeapAllocBytes,
		"peak_rss_bytes":  peak.RSSBytes,
		"recovery_cold": map[string]any{
			"seconds": m.ColdSeconds,
			"classes": m.Classes,
			"workers": m.Workers,
			"k":       m.K,
		},
		"recovery_resumed": map[string]any{
			"seconds":              m.ResumedSeconds,
			"classes":              m.Classes,
			"kill_point":           m.KillPoint,
			"classes_replayed":     m.Replayed,
			"classes_redispatched": m.Redispatched,
			"saved_vs_cold":        m.SavedFraction,
			"workers":              m.Workers,
			"k":                    m.K,
		},
	}
	doc := map[string]any{}
	if raw, err := os.ReadFile(out); err == nil {
		if err := json.Unmarshal(raw, &doc); err != nil {
			return fmt.Errorf("%s: %w", out, err)
		}
	}
	doc["recovery-"+preset] = snap
	enc, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(out, append(enc, '\n'), 0o644)
}

// sweepNetwork lifts a generated WAN into the public API.
func sweepNetwork(w *gen.WAN) *hoyan.Network {
	n := hoyan.NewNetwork()
	for _, node := range w.Net.Nodes() {
		n.AddRouter(hoyan.Router{Name: node.Name, AS: node.AS, Vendor: node.Vendor,
			Region: node.Region, Group: node.Group})
	}
	for _, l := range w.Net.Links() {
		n.AddLink(w.Net.Node(l.A).Name, w.Net.Node(l.B).Name, l.Weight)
	}
	for name, cfg := range w.Snap {
		n.SetConfig(name, config.Write(cfg))
	}
	return n
}

// writeVetSnapshot merges the static-analysis metrics into the
// BENCH_PR10-style JSON file: one label per preset, with vet_static
// (the milliseconds-scale analysis pass), vet_cold_sweep (the classed
// sweep cost it front-runs — extrapolated=1 when sampled, the honesty
// flag), and vet_speedup groups.
func writeVetSnapshot(out, preset string, m *bench.VetMetrics) error {
	extrapolated := 0
	if m.Extrapolated {
		extrapolated = 1
	}
	snap := map[string]any{
		"date":       time.Now().UTC().Format(time.RFC3339),
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"routers":    m.Routers,
		"prefixes":   m.Prefixes,
		"classes":    m.Classes,
		"k":          m.K,
		"vet_static": map[string]any{
			"seconds":            m.VetSeconds,
			"assemble_seconds":   m.AssembleSeconds,
			"us_per_class":       1e6 * m.VetSeconds / float64(m.Classes),
			"findings":           m.Findings,
			"advisories":         m.Advisories,
			"predicted_refusals": m.PredictedRefusals,
		},
		"vet_cold_sweep": map[string]any{
			"seconds":         m.ColdSeconds,
			"sampled_classes": m.SampledClasses,
			"extrapolated":    extrapolated,
		},
		"vet_speedup": map[string]any{
			"speedup_vs_cold_sweep": m.Speedup,
		},
	}
	doc := map[string]any{}
	if raw, err := os.ReadFile(out); err == nil {
		if err := json.Unmarshal(raw, &doc); err != nil {
			return fmt.Errorf("%s: %w", out, err)
		}
	}
	doc["vet-"+preset] = snap
	enc, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(out, append(enc, '\n'), 0o644)
}
