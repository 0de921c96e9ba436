package bench

import (
	"strings"
	"testing"
	"time"

	"hoyan/internal/gen"
)

func TestTableRendering(t *testing.T) {
	tb := Table{Title: "x", Header: []string{"a", "b"}, Rows: [][]string{{"1", "22"}}, Notes: []string{"n"}}
	s := tb.String()
	for _, want := range []string{"=== x ===", "a", "22", "note: n"} {
		if !strings.Contains(s, want) {
			t.Fatalf("rendering missing %q:\n%s", want, s)
		}
	}
}

func TestCDFRows(t *testing.T) {
	r := CDFRow("s", []time.Duration{time.Millisecond, 2 * time.Millisecond, time.Second})
	if r[0] != "s" || r[5] != "1.00s" {
		t.Fatalf("row %v", r)
	}
	if CDFRow("e", nil)[1] != "-" {
		t.Fatal("empty samples")
	}
	ri := CDFIntRow("i", []int{5, 1, 9})
	if ri[5] != "9" {
		t.Fatalf("int row %v", ri)
	}
	if len(CDFHeader("x")) != 6 {
		t.Fatal("header")
	}
}

func TestFig7Small(t *testing.T) {
	tb, err := Fig7Campaign(gen.Small(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 {
		t.Fatalf("rows %d", len(tb.Rows))
	}
}

func TestFig8to13SmallSample(t *testing.T) {
	tb, err := Fig8to13(gen.Small(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) == 0 {
		t.Fatal("no rows")
	}
}

func TestTable2(t *testing.T) {
	tb, err := Table2VSBs()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 8 {
		t.Fatalf("8 VSB rows, got %d", len(tb.Rows))
	}
}

func TestComparisonSmallK01(t *testing.T) {
	tb, err := TableComparison("Table 4 smoke", gen.Small(), []int{0}, 1, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) < 2 {
		t.Fatalf("rows %v", tb.Rows)
	}
}

func TestAblationsSmoke(t *testing.T) {
	tb, err := Ablations(gen.Small(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 5 {
		t.Fatalf("rows %d", len(tb.Rows))
	}
}

func TestFig14And1516(t *testing.T) {
	tb, err := Fig14Accuracy(gen.Small())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Fatalf("fig14 rows %d", len(tb.Rows))
	}
	tb2, err := Fig15and16Tuner(gen.Small())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb2.Rows) != 2 {
		t.Fatalf("fig15/16 rows %d", len(tb2.Rows))
	}
}
