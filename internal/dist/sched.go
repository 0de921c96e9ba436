package dist

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"time"
)

// Pool is a set of executors a plan can run over: the remote workers of
// a *Coordinator, or Local in-process ones.
type Pool interface {
	// open returns the pool's executors for a run of p with the given
	// number of units to dispatch, and the resilience policy to run them
	// under. It does not connect anything.
	open(p *Plan, units int) ([]executor, Options, error)
}

// executor runs passes one at a time. There are exactly two: a TCP
// connection to a remote worker, and an in-process call into one.
type executor interface {
	name() string
	// connect readies the executor for passes; its error is a
	// connection-level failure.
	connect(o Options) error
	// do runs one pass. appErr means the worker answered with an error
	// and the executor is still good; connErr means the connection is
	// unusable (the stream may be desynchronized) and must be dropped.
	do(req Request, o Options) (resp Response, appErr, connErr error)
	// disconnect drops the connection, if any; called from the
	// executor's own goroutine.
	disconnect()
	// interrupt unblocks a do the executor is stuck in; called from the
	// scheduler's goroutine once the run is over.
	interrupt()
}

func (c *Coordinator) open(*Plan, int) ([]executor, Options, error) {
	if len(c.Addrs) == 0 {
		return nil, Options{}, fmt.Errorf("dist: no workers")
	}
	execs := make([]executor, len(c.Addrs))
	for i, addr := range c.Addrs {
		execs[i] = &tcpExecutor{addr: addr}
	}
	return execs, c.Opts.withDefaults(), nil
}

// tcpExecutor is one connection to a remote worker.
type tcpExecutor struct {
	addr string
	enc  *json.Encoder
	dec  *json.Decoder

	mu   sync.Mutex // guards conn against interrupt
	conn net.Conn
}

func (e *tcpExecutor) name() string { return e.addr }

func (e *tcpExecutor) connect(o Options) error {
	c, err := net.DialTimeout("tcp", e.addr, o.DialTimeout)
	if err != nil {
		return err
	}
	e.mu.Lock()
	e.conn = c
	e.mu.Unlock()
	e.enc = json.NewEncoder(c)
	e.dec = json.NewDecoder(bufio.NewReader(c))
	return nil
}

func (e *tcpExecutor) disconnect() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.conn != nil {
		e.conn.Close()
		e.conn = nil
	}
}

func (e *tcpExecutor) interrupt() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.conn != nil {
		e.conn.Close()
	}
}

// do performs one request round-trip under the request deadline.
func (e *tcpExecutor) do(req Request, o Options) (resp Response, appErr, connErr error) {
	if o.RequestTimeout > 0 {
		e.conn.SetDeadline(time.Now().Add(o.RequestTimeout))
	}
	if err := e.enc.Encode(req); err != nil {
		return resp, nil, err
	}
	if err := e.dec.Decode(&resp); err != nil {
		return resp, nil, err
	}
	if resp.Prefix != req.Prefix || resp.Region != req.Region {
		// Stream desync (e.g. a late answer to a timed-out request):
		// the connection can no longer be trusted.
		return resp, nil, fmt.Errorf("response for %q@%q to request for %q@%q",
			resp.Prefix, resp.Region, req.Prefix, req.Region)
	}
	if resp.Error != "" {
		return resp, fmt.Errorf("%s", resp.Error), nil
	}
	return resp, nil, nil
}

// Local is a pool of n in-process executors (n <= 0 means GOMAXPROCS)
// over the plan's Model: "local" is the same scheduler with no socket
// and no JSON between it and the worker. Nothing in-process can be cured
// by a retry, so a failed pass fails its unit at once.
type Local int

func (l Local) open(p *Plan, units int) ([]executor, Options, error) {
	if p.Model == nil {
		return nil, Options{}, fmt.Errorf("dist: in-process executors need the plan's Model")
	}
	cpus := int(l)
	if cpus <= 0 {
		cpus = runtime.GOMAXPROCS(0)
	}
	n := max(1, min(cpus, units))
	// One worker behind every executor: they share its Shared LRU — one
	// IGP memo per k, for monolithic and region passes alike, built from
	// the plan's carried memo on as many goroutines as the pool was
	// given — and each keeps its own simulator, which answer Resets on
	// the same rule as a remote connection's (DESIGN.md, "Recycling").
	src := &modelSource{model: p.Model}
	src.once.Do(func() {})
	w := newWorker(src, p.ModelHash)
	w.carried, w.memoWorkers = p.IGP, cpus
	execs := make([]executor, n)
	for i := range execs {
		execs[i] = &localExecutor{id: fmt.Sprintf("local/%d", i), w: w}
	}
	return execs, Options{MaxAttempts: 1, MaxConnFailures: 1}.withDefaults(), nil
}

// localExecutor calls the worker's answer path as a function.
type localExecutor struct {
	id  string
	w   *Worker
	sim connSim
}

func (e *localExecutor) name() string          { return e.id }
func (e *localExecutor) connect(Options) error { return nil }
func (e *localExecutor) disconnect()           {}
func (e *localExecutor) interrupt()            {}

func (e *localExecutor) do(req Request, _ Options) (Response, error, error) {
	resp := e.w.answer(req, &e.sim)
	if resp.Error != "" {
		return resp, fmt.Errorf("%s", resp.Error), nil
	}
	if req.Record {
		resp.memo = e.sim.sh.IGPMemo()
	}
	return resp, nil, nil
}

// events from executors to the scheduler.
type evKind int

const (
	evDone    evKind = iota
	evFail           // application-level error from the worker
	evRequeue        // connection died with the pass in flight
	evDead           // executor abandoned
)

type event struct {
	kind evKind
	addr string
	pass *pass
	resp Response
	err  error
}

// Run executes the plan over the pool: the one scheduler underneath
// every sweep. It hands each unit's current pass to an idle executor
// with work stealing, re-queues passes lost to dead connections,
// retries failures and hedges stragglers under the pool's Options,
// advances each unit through its passes as answers arrive, and settles
// a unit exactly once — from the journal, or from its final answer,
// journaled first. Without
// AllowPartial any failed prefix is an error (the partial Result is
// still returned); with it the Result carries the completed subset plus
// Failed/WorkerErrors. A journal's refusal of a completion
// (ErrSessionKilled, a write failure) aborts the run: unsettled units
// are then a crash, not a failure, and stay out of Failed — the journal
// holds everything needed to resume them.
func Run(p *Plan, pool Pool) (*Result, error) {
	out := &Result{
		ByPrefix:     map[string][]RouterSummary{},
		Audits:       map[string][]RouterSummary{},
		Records:      map[string]*Record{},
		SimTime:      map[string]time.Duration{},
		Assigned:     map[string]int{},
		WorkerErrors: map[string][]string{},
		Refusals:     map[string]string{},
	}
	pending := p.units()
	if p.Journal != nil {
		var err error
		if pending, err = p.Journal.admit(p, pending, out); err != nil {
			return nil, err
		}
	}
	execs, opts, err := pool.open(p, len(pending))
	if err != nil {
		return nil, err
	}
	out.Executors = len(execs)
	if len(pending) == 0 {
		return out, nil
	}
	for _, u := range pending {
		if u.members != nil {
			out.Classes++
		}
	}

	req := Request{K: p.K, Model: p.ModelHash}
	handout := make(chan *pass)
	events := make(chan event, len(execs)*2) // an executor's requeue + dead pair never blocks on a busy scheduler
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i, e := range execs {
		wg.Add(1)
		// Backoff jitter is seeded per executor, so a run is reproducible.
		go runExecutor(&wg, e, req, opts, rand.New(rand.NewSource(int64(i)+1)), handout, events, stop)
	}

	// Scheduler: owns the ready queue, the units' in-flight state, and
	// completion accounting. Single goroutine, so no locks on the Result.
	ready := append([]*unit(nil), pending...)
	remaining := len(pending)
	live := len(execs)
	var abortErr error // set by a journal refusing a completion; stops the run
	fail := func(u *unit, why string) {
		u.settled, u.failed, u.lastErr = true, true, why
		remaining--
	}

	for remaining > 0 && live > 0 && abortErr == nil {
		var (
			send       chan *pass
			next       *pass
			timer      <-chan time.Time
			hedgeTimer *time.Timer
		)
		if len(ready) > 0 {
			send, next = handout, ready[0].next(p.Regions)
		} else if opts.HedgeAfter > 0 {
			// Oldest unsettled single-copy straggler; equal ages tie-break
			// on prefix so hedge choice never follows dispatch order.
			var hu *unit
			for _, u := range pending {
				if u.copies != 1 || u.settled {
					continue
				}
				if hu == nil || u.since.Before(hu.since) || (u.since.Equal(hu.since) && u.prefix < hu.prefix) {
					hu = u
				}
			}
			if hu != nil {
				if age := time.Since(hu.since); age >= opts.HedgeAfter {
					next = hu.next(p.Regions)
					next.hedge = true
					send = handout
				} else {
					hedgeTimer = time.NewTimer(opts.HedgeAfter - age)
					timer = hedgeTimer.C
				}
			}
		}
		select {
		case send <- next:
			u := next.u
			u.dispatches++
			if next.hedge {
				out.Hedged++
			} else {
				ready = ready[1:]
				if u.dispatches == 1 && p.Journal != nil && u.members != nil {
					p.Journal.appendDispatch(u.prefix)
				}
				if u.copies == 0 {
					u.since = time.Now()
				}
			}
			u.copies++
		case ev := <-events:
			if ev.kind == evDead {
				live--
				out.WorkerErrors[ev.addr] = append(out.WorkerErrors[ev.addr], fmt.Sprintf("worker abandoned: %v", ev.err))
				break
			}
			u := ev.pass.u
			if ev.err != nil {
				out.WorkerErrors[ev.addr] = append(out.WorkerErrors[ev.addr], fmt.Sprintf("%s: %v", passName(ev.pass), ev.err))
			}
			if ev.pass.seq != u.seq {
				break // a copy of a pass the unit has moved past
			}
			u.copies--
			if u.settled {
				break // another copy already won, or the unit failed
			}
			switch ev.kind {
			case evDone:
				out.Assigned[ev.addr]++
				if ev.resp.memo != nil {
					out.IGP = ev.resp.memo
				}
				if !u.absorb(&ev.resp, len(p.Regions), out) {
					u.copies, u.attempts = 0, 0 // a new pass: late copies of the old one are dropped by seq
					ready = append(ready, u)
					break
				}
				if p.Journal != nil && u.members != nil {
					if err := p.Journal.appendDone(u.prefix, u.verdicts, u.rec); err != nil {
						abortErr = err
						break
					}
				}
				u.settled = true
				remaining--
			case evFail:
				u.lastErr = ev.err.Error()
				if u.attempts++; u.attempts >= opts.MaxAttempts {
					fail(u, u.lastErr)
				} else if u.copies <= 0 {
					ready = append(ready, u)
					out.Retried++
				}
			case evRequeue:
				u.lastErr = ev.err.Error()
				if u.copies <= 0 { // otherwise a hedge copy is still running
					ready = append(ready, u)
					out.Requeued++
				}
			}
		case <-timer:
		}
		if hedgeTimer != nil {
			hedgeTimer.Stop()
		}
	}

	// Unwind the pool: stop signals, then interrupt any executor still
	// blocked on a request (e.g. waiting out a straggler).
	close(stop)
	for _, e := range execs {
		e.interrupt()
	}
	wg.Wait()

	if abortErr == nil {
		// Whatever never settled (the pool died first) is a failure.
		for _, u := range pending {
			if !u.settled {
				if u.lastErr == "" {
					u.lastErr = "no live workers"
				}
				fail(u, u.lastErr)
			}
		}
	}
	if err := out.finish(pending, opts.AllowPartial); abortErr == nil {
		return out, err
	}
	return out, abortErr
}

// passName names a pass in WorkerErrors.
func passName(ps *pass) string {
	if ps.region == "" {
		return ps.u.prefix
	}
	return ps.u.prefix + "@" + ps.region
}

// runExecutor is the one loop that hands passes to executors: it drives
// one executor — connect (with backoff), pull passes, and convert
// connection deaths into re-queues — and abandons it after
// MaxConnFailures consecutive connection-level failures.
func runExecutor(wg *sync.WaitGroup, e executor, req Request, opts Options, rng *rand.Rand,
	handout <-chan *pass, events chan<- event, stop <-chan struct{}) {
	defer wg.Done()
	defer e.disconnect()
	failures := 0 // consecutive connection-level failures

	send := func(ev event) {
		ev.addr = e.name()
		select {
		case events <- ev:
		case <-stop:
		}
	}
	// pause waits out the backoff after a connection-level failure; false
	// means the executor is done (failure budget spent, or stopped).
	pause := func(err error) bool {
		if failures++; failures >= opts.MaxConnFailures {
			send(event{kind: evDead, err: err})
			return false
		}
		t := time.NewTimer(opts.backoff(rng, failures))
		defer t.Stop()
		select {
		case <-t.C:
			return true
		case <-stop:
			return false
		}
	}
	connect := func() bool {
		for {
			select {
			case <-stop:
				return false
			default:
			}
			err := e.connect(opts)
			if err == nil {
				return true
			}
			if !pause(err) {
				return false
			}
		}
	}

	if !connect() {
		return
	}
	for {
		var ps *pass
		select {
		case <-stop:
			return
		case ps = <-handout:
		}
		resp, appErr, connErr := e.do(ps.request(req), opts)
		switch {
		case connErr != nil:
			// The connection died with the pass in hand: give the pass
			// back, then reconnect (with backoff) or give up.
			e.disconnect()
			send(event{kind: evRequeue, pass: ps, err: connErr})
			if !pause(connErr) || !connect() {
				return
			}
		case appErr != nil:
			failures = 0
			send(event{kind: evFail, pass: ps, err: appErr})
		default:
			failures = 0
			send(event{kind: evDone, pass: ps, resp: resp})
		}
	}
}
