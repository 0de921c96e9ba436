// Package work runs the independent items of a parallel phase — the IGP
// memo's destinations, a store's class records, a compile's classes — on
// a few goroutines that take them from one queue.
//
// An item is an index; its result goes into the caller's slot for that
// index. A free goroutine takes the next index from an atomic cursor, so
// no goroutine idles at the phase's barrier while items remain, and what
// the caller builds depends on the items alone, not on which goroutine
// ran which one or in what order, as long as each item's own result
// does not.
package work

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"
)

// Run calls do(i) once for every i in [0, n) and returns when every call
// has returned. With workers <= 1 it makes the calls on the calling
// goroutine in index order; otherwise min(workers, n) goroutines take the
// indices from one queue. A non-nil cost orders that queue largest first
// (equal costs in index order), so the longest items start first and the
// last to finish is a short one; nil keeps index order.
func Run(n, workers int, cost func(i int) int, do func(i int)) {
	RunWith(n, workers, cost, func() func(int) { return do })
}

// RunWith is Run where each goroutine calls start once, before its first
// item, for the do it runs its items with: what a goroutine reuses from
// one item to the next (a factory, an engine) is built once per
// goroutine. start is not called when n is 0.
func RunWith(n, workers int, cost func(i int) int, start func() func(i int)) {
	workers = min(workers, n)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	if cost != nil && workers > 1 {
		slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(cost(b), cost(a)) })
	}
	var next atomic.Int64
	take := func() {
		do := start()
		for k := next.Add(1) - 1; k < int64(n); k = next.Add(1) - 1 {
			do(order[k])
		}
	}
	if workers <= 1 {
		if n > 0 {
			take()
		}
		return
	}
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			take()
		}()
	}
	wg.Wait()
}
