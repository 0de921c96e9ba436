// Command hoyanbench regenerates the paper's evaluation tables and figures
// (§8, Appendices E/F) on the synthetic WAN presets and prints them as
// text. See EXPERIMENTS.md for the mapping to the paper and the expected
// shapes.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"hoyan/internal/bench"
	"hoyan/internal/gen"
)

func main() {
	exp := flag.String("exp", "all", "table1 | table2 | table3 | table4 | table5 | fig7 | fig8-13 | fig14 | fig15-16 | appf | ablations | all")
	budget := flag.Duration("budget", 60*time.Second, "per-cell budget for baseline comparisons")
	months := flag.Int("months", 24, "campaign months for fig7")
	limit := flag.Int("limit", 24, "prefix sample size for full-WAN experiments (0 = all)")
	flag.Parse()

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
