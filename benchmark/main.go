// Command benchmark measures the hoyan pipeline end to end and layer by
// layer: config directory → verdicts → live on /v1/query, the same job on
// the modular and distributed executors, config edits through
// /v1/resweep, and closed-loop queries. One invocation is one workload at
// one seed in its own process; see README.md.
package main

import (
	"embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

//go:embed expected/*.digest
var expectedDigests embed.FS

// record is one run as appended to a set file (-json) for -compare.
type record struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	Host     host    `json:"host"`
	// Noisy marks a run that started while something else kept the
	// machine busy, or during which the reference kernel ran half as long
	// again as nominal; -compare leaves its timings out.
	Noisy     bool              `json:"noisy"`
	Passes    int               `json:"passes"`
	Queries   int               `json:"queries"`
	Digest    string            `json:"digest"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Problems  []string          `json:"problems,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	// Samples holds what each median was taken over, WallSamples the same
	// readings before they were scaled to reference speed, and RefKernel
	// every time the reference kernel took, in seconds: together they tell
	// a slow program from a slow minute.
	Samples     map[string][]float64 `json:"samples"`
	WallSamples map[string][]float64 `json:"wall_samples"`
	RefKernel   []float64            `json:"ref_kernel_s"`
}

// host fingerprints where and on what a run was made.
type host struct {
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	Commit     string  `json:"commit"`
	LoadAvg1   float64 `json:"loadavg1"`
	// BusyBefore is the share of all CPU time other processes used in
	// the moment before the run started.
	BusyBefore float64 `json:"cpu_busy_before"`
}

func fingerprint() (host, bool) {
	h := host{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPUModel: cpuModel(), Commit: "unknown", LoadAvg1: loadAvg1()}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	// The one-minute load average still remembers the previous run of a
	// series, so the guard looks at the present instead: a few short
	// samples of what everyone else on the box is using right now.
	noisy := true
	for try := 0; try < 5 && noisy; try++ {
		h.BusyBefore = cpuBusy(200 * time.Millisecond)
		noisy = h.BusyBefore > 0.25
	}
	return h, noisy
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		name    = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Int64("seed", 1, "seed of the edit series and the query deck")
		seconds = flag.Float64("seconds", 20, "how long to measure; whole passes, at least one")
		trace   = flag.Int("trace", 0, "1 adds the single-goroutine traced replay to every pass and reports the per-layer metrics")
		out     = flag.String("out", "out", "directory for work files and traces")
		spec    = flag.String("spec", "../BENCHMARK.json", "the benchmark's metric list and bounds")
		jsonOut = flag.String("json", "", "append this run's record to a set file")
		compare = flag.Bool("compare", false, "compare the set files named as arguments (one file: its medians and spreads)")
		kernel  = flag.Bool("refkernel", false, "run the reference kernel once and print its time (what the benchmark re-executes itself as)")
	)
	flag.Parse()
	if *kernel {
		return refKernelMain()
	}
	if *compare {
		return compareSets(*spec, flag.Args())
	}
	wl, ok := workloadByName(*name)
	if !ok || flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: benchmark -workload {%s} [-seed N] [-seconds S] [-trace 0|1] [-json FILE]\n       benchmark -compare A.jsonl [B.jsonl]\n",
			strings.Join(workloadNames(), "|"))
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}

	h, noisy := fingerprint()
	r := &run{cfg: runConfig{wl: wl, seed: *seed, seconds: *seconds, trace: *trace == 1, out: *out, querySlice: 400 * time.Millisecond, probe: refProbe}}
	if err := r.execute(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}

	// A run whose reference kernel took half as long again as it does on a
	// quiet machine was made in a bad minute, whatever the start looked like.
	noisy = noisy || median(r.probes) > 1.5*refNominal.Seconds()
	want := expectedDigest(wl.name)
	r.op(want == "" || want == r.digest, "verdict digest %s, committed %s", r.digest, want)
	rec := r.report(h, noisy)
	fmt.Printf("# %s seed %d: %d passes, %d queries, edit pairs %v, digest %s\n", wl.name, *seed, r.passes, r.queries, r.edited, r.digest)
	fmt.Printf("# %s, %d cpus, GOMAXPROCS %d, %s, commit %s, load %.2f, busy before %.2f%s\n",
		h.CPUModel, h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.Commit, h.LoadAvg1, h.BusyBefore, map[bool]string{true: " NOISY"}[noisy])
	if r.tr != nil {
		path, self, err := r.writeTrace()
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		fmt.Printf("# spans in %s; self time by span name:\n", path)
		for _, row := range self {
			fmt.Printf("#   %-20s %5d calls %10.4f s total %10.4f s self\n", row.Name, row.Calls, row.Total, row.Self)
		}
	}
	for _, p := range r.problems {
		fmt.Println("# FAILED:", p)
	}
	for _, n := range r.rec.order {
		if m, ok := rec.Metrics[n]; ok {
			fmt.Printf("%s %v %s\n", n, m.Value, m.Unit)
		}
	}
	if *jsonOut != "" {
		if err := appendRecord(*jsonOut, rec); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(line))
	if !rec.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// expectedDigest returns the committed verdict digest of a workload, or
// "" when none is committed. The topology does not depend on the run
// seed, so one digest per workload gates every seed.
func expectedDigest(name string) string {
	data, err := expectedDigests.ReadFile("expected/" + name + ".digest")
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(data))
}

// report assembles the run's record. An untraced run reports the
// end-to-end metrics, a traced run the per-layer ones: end-to-end names
// have no dot, per-layer names are "layer.metric".
func (r *run) report(h host, noisy bool) record {
	all := r.rec.result()
	metrics := map[string]metric{}
	samples, wall := map[string][]float64{}, map[string][]float64{}
	for name, m := range all {
		if strings.Contains(name, ".") == r.cfg.trace {
			metrics[name] = m
			if xs := r.rec.samples[name]; len(xs) > 0 {
				samples[name], wall[name] = xs, r.rec.wall[name]
			}
		}
	}
	return record{
		Workload: r.cfg.wl.name, Seed: r.cfg.seed, Seconds: r.cfg.seconds, Trace: r.cfg.trace,
		Host: h, Noisy: noisy, Passes: r.passes, Queries: r.queries, Digest: r.digest,
		Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Problems: r.problems,
		Metrics: metrics, Samples: samples, WallSamples: wall, RefKernel: r.probes,
	}
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
