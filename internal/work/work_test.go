package work

import (
	"fmt"
	"sync/atomic"
	"testing"
)

// TestRunCoversEachIndexOnce pins the queue's one promise: every index in
// [0, n) is run exactly once, at every worker count, with the queue in
// index order and largest cost first; each goroutine calls start once,
// and one that has no item to run needs none. Run it under -race (make
// determinism does): each call writes its own slot, and the counts are
// read after Run returns.
func TestRunCoversEachIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 5, 1000} {
		for _, workers := range []int{0, 1, 2, n + 3} {
			for _, cost := range []func(int) int{nil, func(i int) int { return i % 7 }} {
				t.Run(fmt.Sprintf("n%d/workers%d/cost%t", n, workers, cost != nil), func(t *testing.T) {
					runs := make([]int, n)
					var starts atomic.Int32
					RunWith(n, workers, cost, func() func(int) {
						starts.Add(1)
						return func(i int) { runs[i]++ }
					})
					for i, c := range runs {
						if c != 1 {
							t.Fatalf("index %d ran %d times", i, c)
						}
					}
					want := min(max(workers, 1), n)
					if got := int(starts.Load()); got > want || (n > 0 && got < 1) {
						t.Fatalf("start called %d times, want 1 to %d", got, want)
					}
					seen := make([]int32, n)
					Run(n, workers, cost, func(i int) { atomic.AddInt32(&seen[i], 1) })
					for i, c := range seen {
						if c != 1 {
							t.Fatalf("Run: index %d ran %d times", i, c)
						}
					}
				})
			}
		}
	}
}

// TestRunInlineKeepsIndexOrder pins the serial case: with at most one
// worker the items run on the calling goroutine, in index order, whatever
// their cost.
func TestRunInlineKeepsIndexOrder(t *testing.T) {
	for _, workers := range []int{-1, 0, 1} {
		var order []int
		Run(6, workers, func(i int) int { return i }, func(i int) { order = append(order, i) })
		for i, got := range order {
			if got != i {
				t.Fatalf("workers %d: ran %v, want index order", workers, order)
			}
		}
		if len(order) != 6 {
			t.Fatalf("workers %d: ran %d items, want 6", workers, len(order))
		}
	}
}
