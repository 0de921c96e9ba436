// Command hoyand serves the verifier as an HTTP/JSON API (the Figure 2
// frontend operators query) and, optionally, the emulated production
// network's collection plane (ext-RIB pulls and BMP-style update logs)
// over a TCP line protocol.
//
//	hoyand -dir /path/to/wan -http :8080 [-collector :8081] [-k 3]
//
// Endpoints: GET /v1/routers /v1/prefixes /v1/route /v1/packet
// /v1/equivalence /v1/racing /v1/classes /v1/query /v1/snapshots,
// POST /v1/resweep (incremental whole-network re-verification),
// POST /v1/snapshots[/activate] (query-plane snapshot registry) — see
// internal/httpapi. -store publishes a saved sweep's results to the
// query plane at boot so /v1/query answers without a warm-up sweep, and
// makes them the baseline the first /v1/resweep diffs against.
//
// Both planes shut down gracefully on SIGINT/SIGTERM: in-flight HTTP
// requests get a drain window and collector connections are unblocked.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"sync"
	"syscall"
	"time"

	"hoyan"
	"hoyan/internal/collector"
	"hoyan/internal/core"
	"hoyan/internal/device"
	"hoyan/internal/gen"
	"hoyan/internal/httpapi"
)

func main() {
	dir := flag.String("dir", "", "network directory (topology.txt + *.cfg)")
	httpAddr := flag.String("http", ":8080", "HTTP API listen address")
	collAddr := flag.String("collector", "", "optional collector (ext-RIB/BMP) listen address")
	k := flag.Int("k", 3, "failure budget")
	idle := flag.Duration("idle-timeout", 5*time.Minute, "drop collector connections idle this long (0 = never)")
	drain := flag.Duration("drain", 10*time.Second, "shutdown drain window for in-flight requests")
	maxSessions := flag.Int("max-sessions", 0, "max concurrent sweep sessions (0 = default 2); saturation answers 429 + Retry-After")
	maxJobs := flag.Int("max-session-jobs", 0, "per-session queued-job bound for sweeps (0 = unlimited)")
	storePath := flag.String("store", "", "result store to compile and publish to the query plane at boot (/v1/query serves immediately); it is also the first /v1/resweep's baseline")
	cpuprofile := flag.String("cpuprofile", "", "profile CPU for the server's lifetime, written on shutdown")
	memprofile := flag.String("memprofile", "", "write a heap profile on shutdown")
	flag.Parse()

	if *dir == "" {
		fmt.Fprintln(os.Stderr, "hoyand: missing -dir")
		os.Exit(2)
	}
	topoNet, snap, err := gen.LoadDir(*dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hoyand:", err)
		os.Exit(1)
	}

	var coll *collector.Server
	if *collAddr != "" {
		oracle, err := device.NewOracle(topoNet, snap, core.DefaultOptions())
		if err != nil {
			fmt.Fprintln(os.Stderr, "hoyand:", err)
			os.Exit(1)
		}
		ln, err := net.Listen("tcp", *collAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hoyand:", err)
			os.Exit(1)
		}
		coll = collector.NewServer(oracle)
		coll.IdleTimeout = *idle
		go func() {
			if err := coll.Serve(ln); err != nil {
				fmt.Fprintln(os.Stderr, "hoyand: collector:", err)
			}
		}()
		fmt.Printf("collector listening on %s\n", ln.Addr())
	}

	svc, err := httpapi.New(topoNet, snap, *k)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hoyand:", err)
		os.Exit(1)
	}
	if *maxSessions > 0 || *maxJobs > 0 {
		svc.SetSessionLimits(*maxSessions, *maxJobs)
	}
	if *storePath != "" {
		st, err := hoyan.LoadResultStore(*storePath)
		if err != nil {
			var ce *hoyan.CorruptStoreError
			if !(errors.As(err, &ce) && ce.Usable) {
				fmt.Fprintln(os.Stderr, "hoyand:", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "hoyand: %v (quarantined classes dropped from the snapshot)\n", err)
		}
		id, err := svc.PublishStore(st)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hoyand: compiling store:", err)
			os.Exit(1)
		}
		svc.SetBaseline(st)
		fmt.Printf("query plane serving snapshot %s from %s\n", id, *storePath)
	}
	srv := &http.Server{
		Addr:              *httpAddr,
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	// Profiles cover the serving lifetime and flush on any exit path:
	// graceful shutdown returns through the deferred call, the serve-error
	// path flushes explicitly before os.Exit.
	finishProfiles := startProfiles(*cpuprofile, *memprofile)
	defer finishProfiles()

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigs
		fmt.Printf("hoyand: %v: shutting down\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if coll != nil {
			coll.Close()
		}
		// Orderly drain: refuse new sweep sessions (503) and let running
		// ones finish inside the drain window, then stop the listener.
		if err := svc.Drain(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "hoyand: drain timed out with sweeps still running:", err)
		}
		srv.Shutdown(ctx)
	}()

	classes := svc.Classes()
	nprefix := 0
	for _, c := range classes {
		nprefix += len(c.Members)
	}
	fmt.Printf("verifier API listening on %s (%d routers, %d links, k=%d, %d prefixes in %d behavior classes)\n",
		*httpAddr, topoNet.NumNodes(), topoNet.NumLinks(), *k, nprefix, len(classes))
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "hoyand:", err)
		finishProfiles()
		os.Exit(1)
	}
}

// startProfiles begins CPU profiling (when requested) and returns an
// idempotent flush that stops it and writes the heap profile.
func startProfiles(cpu, mem string) func() {
	stopCPU := func() {}
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hoyand:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "hoyand:", err)
			os.Exit(1)
		}
		stopCPU = func() {
			pprof.StopCPUProfile()
			f.Close()
		}
	}
	var once sync.Once
	return func() {
		once.Do(func() {
			stopCPU()
			if mem == "" {
				return
			}
			f, err := os.Create(mem)
			if err != nil {
				fmt.Fprintln(os.Stderr, "hoyand:", err)
				return
			}
			runtime.GC() // up-to-date heap statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "hoyand:", err)
			}
			f.Close()
		})
	}
}
