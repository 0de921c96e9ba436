package main

import (
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// smokeRun makes one short run of the gen.Small workload: passes for the
// given time (at least one), a tenth-of-a-second query slice, an edit pair
// per pass and every closing check.
func smokeRun(t *testing.T, trace bool, seconds float64) (*run, record) {
	t.Helper()
	wl, ok := workloadByName("small-k1")
	if !ok {
		t.Fatal("no small-k1 workload")
	}
	inProcess := func() (time.Duration, error) {
		d, _ := refKernel()
		return d, nil
	}
	r := &run{cfg: runConfig{wl: wl, seed: 1, seconds: seconds, trace: trace, out: t.TempDir(), querySlice: 100 * time.Millisecond, probe: inProcess}}
	if err := r.execute(); err != nil {
		t.Fatal(err)
	}
	if want := expectedDigest(wl.name); want != r.digest {
		t.Errorf("verdict digest %s, committed %s", r.digest, want)
	}
	if trace {
		if _, _, err := r.writeTrace(); err != nil {
			t.Fatal(err)
		}
	}
	rec := r.report(host{}, false)
	if rec.Failed != 0 || !rec.Correct || rec.Attempted == 0 {
		t.Errorf("trace=%v: %d of %d operations failed: %v", trace, rec.Failed, rec.Attempted, rec.Problems)
	}
	return r, rec
}

// checkMetrics holds a run's metrics against the list BENCHMARK.json
// promises: every one present with its unit, none besides.
func checkMetrics(t *testing.T, rec record, want []specMetric, nonZero bool) {
	t.Helper()
	listed := map[string]bool{}
	for _, m := range want {
		listed[m.Name] = true
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
			t.Errorf("BENCHMARK.json: bad name or unit %q %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("BENCHMARK.json: %s: better is %q", m.Name, m.Better)
		}
		got, ok := rec.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("metric %s is in BENCHMARK.json and was not reported", m.Name)
		case got.Unit != m.Unit:
			t.Errorf("metric %s reported in %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
		case nonZero && got.Value == 0:
			t.Errorf("metric %s is 0", m.Name)
		}
	}
	for name := range rec.Metrics {
		if !listed[name] {
			t.Errorf("metric %s was reported and is not in BENCHMARK.json", name)
		}
	}
}

func TestSmoke(t *testing.T) {
	start := time.Now()
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the benchmark %q", i, w.Name, workloads[i].name)
		}
	}
	hasSetup := false
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("BENCHMARK.json has no setup_s in seconds, lower is better")
	}

	// Two passes or more, so that a policy edit and a static edit are both
	// applied and rolled back: a pass here takes well under a second.
	r, plain := smokeRun(t, false, 2)
	checkMetrics(t, plain, spec.EndToEnd, true)
	if r.edited["policy"] == 0 || r.edited["static"] == 0 {
		t.Errorf("%d passes timed edits %v, want both kinds", r.passes, r.edited)
	}
	_, traced := smokeRun(t, true, 0.1)
	checkMetrics(t, traced, spec.PerLayer, false)
	_, again := smokeRun(t, true, 0.1)
	for name, m := range traced.Metrics {
		if m.Unit == "count" && again.Metrics[name] != m {
			t.Errorf("count %s: %v in one run, %v in the next at the same seed", name, m.Value, again.Metrics[name].Value)
		}
	}

	// The three runs as two sets: nothing failed, the counts agree, and
	// single runs have no spread, so the comparison has nothing to flag.
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.jsonl"), filepath.Join(dir, "b.jsonl")
	for path, recs := range map[string][]record{a: {plain, traced}, b: {plain, again}} {
		for _, rec := range recs {
			if err := appendRecord(path, rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	if code := compareSets("../BENCHMARK.json", []string{a, b}); code != 0 {
		t.Errorf("comparing a run with itself exits %d", code)
	}
	if d := time.Since(start); d > 15*time.Second {
		t.Errorf("smoke test took %v, want under 15s", d)
	}
}

func TestCompareFlagsBreachAndCountDrift(t *testing.T) {
	one := func(name, unit string, v float64) record {
		return record{Workload: "small-k1", Seed: 1, Trace: unit == "count", Correct: true, Attempted: 1,
			Metrics: map[string]metric{name: {Value: v, Unit: unit}}}
	}
	verify := func(seconds float64) record { return one("verify_s", "s", seconds) }
	steps := func(n float64) record { return one("core.steps", "count", n) }
	dir := t.TempDir()
	write := func(file string, recs ...record) string {
		path := filepath.Join(dir, file)
		for _, rec := range recs {
			if err := appendRecord(path, rec); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	base := write("base.jsonl", verify(1.0), verify(1.01), steps(87))
	slow := write("slow.jsonl", verify(1.5), verify(1.51), steps(87))
	drift := write("drift.jsonl", verify(1.0), steps(88))
	noisy := verify(9)
	noisy.Noisy = true
	disturbed := write("disturbed.jsonl", verify(1.0), noisy, noisy)
	if code := compareSets("../BENCHMARK.json", []string{base, base}); code != 0 {
		t.Errorf("equal sets exit %d", code)
	}
	if code := compareSets("../BENCHMARK.json", []string{base, slow}); code != 1 {
		t.Errorf("a 50%% slower verify_s exits %d, want 1", code)
	}
	if code := compareSets("../BENCHMARK.json", []string{base, disturbed}); code != 0 {
		t.Errorf("noisy runs nine times slower exit %d, want 0: they are left out", code)
	}
	if code := compareSets("../BENCHMARK.json", []string{base, drift}); code != 1 {
		t.Errorf("a changed count exits %d, want 1", code)
	}
}

// TestQuartilesMatchPython pins the spread to the rule the acceptance
// check uses: statistics.quantiles(range(1, 11), n=4) is 2.75, 5.5, 8.25.
func TestQuartilesMatchPython(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 || median(xs) != 5.5 {
		t.Errorf("quartiles %v %v median %v, want 2.75 8.25 5.5", q1, q3, median(xs))
	}
}
