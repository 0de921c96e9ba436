package main

import (
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The reference kernel is a fixed unit of work the benchmark runs at every
// boundary between timed intervals, to learn how fast the machine is at
// that moment. The sandbox this was calibrated on shares its cores with
// other tenants: the same sweep takes 0.33 s in a quiet minute, 0.45 s in
// an ordinary one and 1.5 s in a bad one, and nothing the process can
// read (steal time, load average) says which minute it is. Ten runs of one
// commit then spread by 30–45 % in wall-clock seconds, and no bound the
// contract allows survives that. So every timing is reported in reference
// seconds: wall-clock seconds multiplied by refNominal / (the mean of the
// kernel's times just before and just after the interval).
//
// The kernel runs in a process of its own (this binary, re-executed with
// -refkernel), with a heap of its own and the collector off: what it
// measures cannot depend on how much memory the program under test holds,
// allocates or frees, so scaling by it removes what the machine adds and
// nothing the program does. It is chosen to slow down the way the program
// does under a busy neighbour: it hash-conses small structs into a fresh
// map and sorts a fresh slice (like logic's factory between resets), on
// two goroutines at once (like the sweep's two workers, so either core
// being slow shows).
//
// It must never change: every recorded number is relative to it.

// refNominal is the kernel's time on the calibration sandbox (2 vCPUs of
// a 2.1 GHz Xeon) in a quiet minute. It only fixes the unit: on that box
// in a quiet minute a reference second is a second. On any other host all
// figures are off by one constant factor, which no comparison of two
// commits on one host sees.
const refNominal = 37 * time.Millisecond

type refNode struct{ a, b, v int32 }

// refWork is one goroutine's share.
func refWork(seed int64) int {
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[refNode]int32, 1<<17)
	nodes := make([]refNode, 0, 1<<17)
	hits := 0
	for i := 0; i < 120000; i++ {
		n := refNode{int32(rng.Intn(4000)), int32(rng.Intn(4000)), int32(i & 63)}
		if id, ok := seen[n]; ok {
			hits += int(id)
			continue
		}
		seen[n] = int32(len(nodes))
		nodes = append(nodes, n)
	}
	xs := make([]int, 150000)
	for i := range xs {
		xs[i] = rng.Int()
	}
	sort.Ints(xs)
	return hits + len(nodes) + xs[7]
}

// refKernel runs the kernel once on two goroutines and returns how long
// the slower one took and a checksum that keeps the work from being
// dropped.
func refKernel() (time.Duration, int) {
	t0 := time.Now()
	var wg sync.WaitGroup
	var sums [2]int
	for i := range sums {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sums[i] = refWork(int64(i + 1))
		}()
	}
	wg.Wait()
	return time.Since(t0), sums[0] + sums[1]
}

// refKernelMain is the child's whole life: kernel once, time on stdout.
func refKernelMain() int {
	debug.SetGCPercent(-1)
	d, sum := refKernel()
	fmt.Println(d.Nanoseconds(), sum)
	return 0
}

// refProbe times the kernel in a fresh process.
func refProbe() (time.Duration, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	out, err := exec.Command(self, "-refkernel").Output()
	if err != nil {
		return 0, fmt.Errorf("reference kernel: %w", err)
	}
	f := strings.Fields(string(out))
	if len(f) != 2 {
		return 0, fmt.Errorf("reference kernel printed %q", out)
	}
	ns, err := strconv.ParseInt(f[0], 10, 64)
	if err != nil || ns <= 0 {
		return 0, fmt.Errorf("reference kernel printed %q", out)
	}
	return time.Duration(ns), nil
}
