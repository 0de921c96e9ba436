package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// benchSpec is the part of BENCHMARK.json the tools read.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func loadSet(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, rec)
	}
	return out, sc.Err()
}

// summary is one metric's median and spread over a set's quiet runs of
// one workload; runs marked noisy are counted and left out. The spread is
// the distance between the quartiles as a share of the median, the measure
// the benchmark's acceptance uses.
type summary struct {
	n, noisy int
	median   float64
	spread   float64
}

func summarize(set []record, workload, name string) summary {
	var xs []float64
	noisy := 0
	for _, rec := range set {
		m, ok := rec.Metrics[name]
		switch {
		case !ok || rec.Workload != workload || rec.Trace:
		case rec.Noisy:
			noisy++
		default:
			xs = append(xs, m.Value)
		}
	}
	s := summary{n: len(xs), noisy: noisy, median: median(xs)}
	if q1, q3 := quartiles(xs); s.median != 0 {
		s.spread = (q3 - q1) / s.median
	}
	return s
}

// compareSets prints, per workload and end-to-end metric, one set's
// medians and spreads, or two sets' medians, their relative difference
// and the bound, over the runs not marked noisy. A pair is unresolved
// when either set's spread exceeds the bound or most of its runs were
// noisy. It returns non-zero when the second set is worse than the first
// by more than a bound, when any run failed an operation, or when a
// per-layer count differs between runs of one workload and seed.
func compareSets(specPath string, files []string) int {
	if len(files) < 1 || len(files) > 2 {
		fmt.Fprintln(os.Stderr, "benchmark: -compare wants one or two set files")
		return 2
	}
	spec, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	var sets [][]record
	for _, f := range files {
		set, err := loadSet(f)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		sets = append(sets, set)
	}

	bad := 0
	for si, set := range sets {
		for _, rec := range set {
			if rec.Failed > 0 {
				fmt.Printf("FAILED  %s: %s seed %d: %d of %d operations failed\n", files[si], rec.Workload, rec.Seed, rec.Failed, rec.Attempted)
				bad++
			}
			if rec.Noisy {
				fmt.Printf("noisy   %s: %s seed %d ran on a disturbed machine and is left out\n", files[si], rec.Workload, rec.Seed)
			}
		}
	}

	unresolved := 0
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			a := summarize(sets[0], w.Name, m.Name)
			if a.n+a.noisy == 0 {
				continue
			}
			if len(sets) == 1 {
				note := ""
				if a.spread > m.Bound/3 {
					note = "  spread above a third of the bound"
				}
				fmt.Printf("%-11s %-17s n=%-2d median %12.6g %-4s spread %5.1f%%  bound %4.0f%%%s\n",
					w.Name, m.Name, a.n, a.median, m.Unit, 100*a.spread, 100*m.Bound, note)
				continue
			}
			b := summarize(sets[1], w.Name, m.Name)
			if b.n+b.noisy == 0 {
				continue
			}
			worse := 0.0
			if a.n > 0 {
				worse = (b.median - a.median) / a.median
			}
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			// Too few quiet runs to tell, or the runs disagree among
			// themselves by more than the bound.
			case a.n <= a.noisy || b.n <= b.noisy || a.spread > m.Bound || b.spread > m.Bound:
				verdict = "unresolved"
				unresolved++
			case worse > m.Bound:
				verdict = "BREACH"
				bad++
			}
			fmt.Printf("%-11s %-17s A %12.6g (n=%d, spread %4.1f%%)  B %12.6g (n=%d, spread %4.1f%%)  worse by %+6.1f%%  bound %3.0f%%  %s\n",
				w.Name, m.Name, a.median, a.n, 100*a.spread, b.median, b.n, 100*b.spread, 100*worse, 100*m.Bound, verdict)
		}
	}
	bad += compareCounts(sets)
	fmt.Printf("%d breaches or failures, %d unresolved\n", bad, unresolved)
	if bad > 0 {
		return 1
	}
	return 0
}

// compareCounts checks that every per-layer count repeats exactly across
// all traced runs of one workload and seed, in and between the sets.
func compareCounts(sets [][]record) int {
	type key struct {
		workload string
		seed     int64
		name     string
	}
	first := map[key]float64{}
	differ := map[key]bool{}
	for _, set := range sets {
		for _, rec := range set {
			if !rec.Trace {
				continue
			}
			for name, m := range rec.Metrics {
				if m.Unit != "count" {
					continue
				}
				k := key{rec.Workload, rec.Seed, name}
				if v, ok := first[k]; ok && v != m.Value {
					differ[k] = true
				} else if !ok {
					first[k] = m.Value
				}
			}
		}
	}
	var lines []string
	for k := range differ {
		lines = append(lines, fmt.Sprintf("COUNT   %s seed %d: %s differs between runs", k.workload, k.seed, k.name))
	}
	sort.Strings(lines)
	for _, l := range lines {
		fmt.Println(l)
	}
	return len(lines)
}
