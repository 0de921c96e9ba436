package dist

import (
	"bufio"
	"container/heap"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"time"

	"hoyan/internal/core"
	"hoyan/internal/igp"
	"hoyan/internal/netaddr"
)

// Pool is a set of executors a plan can run over: the remote workers of
// a *Coordinator, or Local in-process ones.
type Pool interface {
	// open returns the pool's executors for a run of p with the given
	// number of units to dispatch, the resilience policy to run them
	// under, and the IGP memo its executors simulate on when they run in
	// this process (nil otherwise). It does not connect anything.
	open(p *Plan, units int) ([]executor, Options, *igp.Memo, error)
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

func (c *Coordinator) open(*Plan, int) ([]executor, Options, *igp.Memo, error) {
	if len(c.Addrs) == 0 {
		return nil, Options{}, nil, fmt.Errorf("dist: no workers")
	}
	execs := make([]executor, len(c.Addrs))
	for i, addr := range c.Addrs {
		execs[i] = &tcpExecutor{addr: addr}
	}
	return execs, c.Opts.withDefaults(), nil, nil
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
// and no JSON between it and the pass. Nothing in-process can be cured
// by a retry, so a failed pass fails its unit at once.
type Local int

// open builds the run's one core.Shared from the plan's Model and carried
// IGP memo when it has units to run; a memo the step cap cut off fails
// the run before any dispatch. Each executor runs passes on that Shared
// with a simulator of its own, kept or Reset on a remote connection's
// rule (DESIGN.md, "Recycling").
func (l Local) open(p *Plan, units int) ([]executor, Options, *igp.Memo, error) {
	if p.Model == nil {
		return nil, Options{}, nil, fmt.Errorf("dist: in-process executors need the plan's Model")
	}
	cpus := int(l)
	if cpus <= 0 {
		cpus = runtime.GOMAXPROCS(0)
	}
	var sh *core.Shared
	if units > 0 {
		opts := core.DefaultOptions()
		opts.K = p.K
		sh = core.SharedFrom(p.Model, opts, p.IGP, cpus)
		if err := sh.Err(); err != nil {
			return nil, Options{}, nil, err
		}
	}
	execs := make([]executor, max(1, min(cpus, units)))
	for i := range execs {
		execs[i] = &localExecutor{id: fmt.Sprintf("local/%d", i), sh: sh}
	}
	return execs, Options{MaxAttempts: 1, MaxConnFailures: 1}.withDefaults(), sh.IGPMemo(), nil
}

// localExecutor runs passes on the run's Shared as a function call.
type localExecutor struct {
	id  string
	sh  *core.Shared
	sim connSim
}

func (e *localExecutor) name() string          { return e.id }
func (e *localExecutor) connect(Options) error { return nil }
func (e *localExecutor) disconnect()           {}
func (e *localExecutor) interrupt()            {}

func (e *localExecutor) do(req Request, _ Options) (Response, error, error) {
	resp := runPass(req, e.sh, &e.sim)
	if resp.Error != "" {
		return resp, fmt.Errorf("%s", resp.Error), nil
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
	evIdle           // executor connected and waiting for its next pass
)

type event struct {
	kind evKind
	exec int // index of the executor in the pool
	addr string
	pass *pass
	resp Response
	err  error
}

// passKey is what an executor's reuse rule compares between two passes
// (DESIGN.md, "Recycling"): the unit's family origins, interned per run,
// and the pass's region. Every pass of a plan without a Model has the
// zero key, so its ready queue is one FIFO.
type passKey struct {
	origins int
	region  string
}

// readyQueue holds the passes waiting for an executor, indexed by key:
// a FIFO per key, and a heap of the keys by the age of their oldest pass.
// Picking a pass (pick) costs no scan of the queue.
type readyQueue struct {
	n     int // passes queued
	clock int // ready order: a pass's at
	byKey map[passKey][]readyPass
	heads keyHeads
}

type readyPass struct {
	ps *pass
	at int
}

// keyHead is a key's oldest pass in heads. Heads go stale as their pass
// leaves the queue (take pushes the next one): a head counts only while
// it is the front of its key's FIFO.
type keyHead struct {
	at  int
	key passKey
}

type keyHeads []keyHead

func (h keyHeads) Len() int           { return len(h) }
func (h keyHeads) Less(i, j int) bool { return h[i].at < h[j].at }
func (h keyHeads) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *keyHeads) Push(x any)        { *h = append(*h, x.(keyHead)) }
func (h *keyHeads) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

func (q *readyQueue) push(ps *pass, key passKey) {
	q.clock++
	fifo := q.byKey[key]
	if len(fifo) == 0 {
		heap.Push(&q.heads, keyHead{at: q.clock, key: key})
	}
	q.byKey[key] = append(fifo, readyPass{ps: ps, at: q.clock})
	q.n++
}

// take removes the oldest pass of key, which must have one.
func (q *readyQueue) take(key passKey) *pass {
	fifo := q.byKey[key]
	if len(fifo) == 1 {
		delete(q.byKey, key)
	} else {
		q.byKey[key] = fifo[1:]
		heap.Push(&q.heads, keyHead{at: fifo[1].at, key: key})
	}
	q.n--
	return fifo[0].ps
}

// oldest returns the key of the oldest queued pass whose key busy does
// not reject; false when every queued key is rejected. It sets aside one
// head per rejected key, so it costs O(rejected · log keys).
func (q *readyQueue) oldest(busy func(passKey) bool) (passKey, bool) {
	var held []keyHead
	defer func() {
		for _, h := range held {
			heap.Push(&q.heads, h)
		}
	}()
	for len(q.heads) > 0 {
		h := heap.Pop(&q.heads).(keyHead)
		if fifo := q.byKey[h.key]; len(fifo) == 0 || fifo[0].at != h.at {
			continue // stale
		}
		held = append(held, h)
		if busy == nil || !busy(h.key) {
			return h.key, true
		}
	}
	return passKey{}, false
}

// pick removes the pass an idle executor whose last pass had key last
// runs next (origin affinity, DESIGN.md "Recycling"): the oldest pass of
// its own key, so its factory keeps; else the oldest pass of a key no
// busy executor last ran, so two executors do not split one key's run;
// else the oldest pass. The queue must not be empty.
func (q *readyQueue) pick(last passKey, busy map[passKey]int) *pass {
	if _, ok := q.byKey[last]; ok {
		return q.take(last)
	}
	key, ok := q.oldest(func(k passKey) bool { return busy[k] > 0 })
	if !ok {
		key, _ = q.oldest(nil)
	}
	return q.take(key)
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
	execs, opts, memo, err := pool.open(p, len(pending))
	if err != nil {
		return nil, err
	}
	out.Executors, out.IGP = len(execs), memo
	if len(pending) == 0 {
		return out, nil
	}
	for _, u := range pending {
		if u.members != nil {
			out.Classes++
		}
	}

	req := Request{K: p.K, Model: p.ModelHash}
	events := make(chan event, len(execs)*2) // an executor's two events between passes (done + idle, requeue + dead) never block on a busy scheduler
	stop := make(chan struct{})
	// Per executor: its 1-slot pass channel, the key of its last pass and
	// whether it is running one now (dispatched, not yet idle again).
	type execState struct {
		passes chan *pass
		last   passKey
		busy   bool
	}
	states := make([]execState, len(execs))
	var wg sync.WaitGroup
	for i, e := range execs {
		states[i] = execState{passes: make(chan *pass, 1), last: passKey{origins: -1}}
		wg.Add(1)
		// Backoff jitter is seeded per executor, so a run is reproducible.
		go runExecutor(&wg, i, e, req, opts, rand.New(rand.NewSource(int64(i)+1)), states[i].passes, events, stop)
	}

	// Scheduler: owns the ready queue, the units' in-flight state, and
	// completion accounting. Single goroutine, so no locks on the Result.
	keyOf := func(ps *pass) passKey {
		if p.Model == nil {
			return passKey{}
		}
		return passKey{origins: ps.u.origins, region: ps.region}
	}
	if p.Model != nil {
		internOrigins(p, pending)
	}
	ready := &readyQueue{byKey: map[passKey][]readyPass{}}
	enqueue := func(u *unit) {
		ps := u.next(p.Regions)
		ready.push(ps, keyOf(ps))
	}
	for _, u := range pending {
		enqueue(u)
	}
	var idle []int            // idle executors, longest idle first
	busy := map[passKey]int{} // busy executors by the key of their last pass
	remaining := len(pending)
	live := len(execs)
	var abortErr error // set by a journal refusing a completion; stops the run
	fail := func(u *unit, why string) {
		u.settled, u.failed, u.lastErr = true, true, why
		remaining--
	}
	// dispatch hands ps to the longest-idle executor.
	dispatch := func(ps *pass) {
		st := &states[idle[0]]
		idle = idle[1:]
		st.last, st.busy = keyOf(ps), true
		busy[st.last]++
		st.passes <- ps // its one slot is empty: the executor took its last pass before going idle
		u := ps.u
		u.dispatches++
		if ps.hedge {
			out.Hedged++
		} else {
			if u.dispatches == 1 && p.Journal != nil && u.members != nil {
				p.Journal.appendDispatch(u.prefix)
			}
			if u.copies == 0 {
				u.since = time.Now()
			}
		}
		u.copies++
	}

	for remaining > 0 && live > 0 && abortErr == nil {
		var (
			timer      <-chan time.Time
			hedgeTimer *time.Timer
		)
		for len(idle) > 0 {
			if ready.n > 0 {
				dispatch(ready.pick(states[idle[0]].last, busy))
				continue
			}
			if opts.HedgeAfter <= 0 {
				break
			}
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
			if hu == nil {
				break
			}
			if age := time.Since(hu.since); age < opts.HedgeAfter {
				hedgeTimer = time.NewTimer(opts.HedgeAfter - age)
				timer = hedgeTimer.C
				break
			}
			ps := hu.next(p.Regions)
			ps.hedge = true
			dispatch(ps)
		}
		select {
		case ev := <-events:
			if ev.kind == evIdle || ev.kind == evDead {
				if st := &states[ev.exec]; st.busy {
					st.busy = false
					busy[st.last]--
				}
				if ev.kind == evIdle {
					idle = append(idle, ev.exec)
				} else {
					live--
					out.WorkerErrors[ev.addr] = append(out.WorkerErrors[ev.addr], fmt.Sprintf("worker abandoned: %v", ev.err))
				}
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
				if ev.resp.Kept {
					out.KeptPasses++
				}
				if !u.absorb(&ev.resp, len(p.Regions), out) {
					u.copies, u.attempts = 0, 0 // a new pass: late copies of the old one are dropped by seq
					enqueue(u)
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
					enqueue(u)
					out.Retried++
				}
			case evRequeue:
				u.lastErr = ev.err.Error()
				if u.copies <= 0 { // otherwise a hedge copy is still running
					enqueue(u)
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

// internOrigins numbers each unit's family origins (core.Model.
// FamilyOrigins of its prefix) from 1, equal origins alike: the origins
// half of its passes' keys. A prefix that does not parse keeps 0; its
// pass fails on the worker.
func internOrigins(p *Plan, units []*unit) {
	ids := map[string]int{}
	for _, u := range units {
		pfx, err := netaddr.Parse(u.prefix)
		if err != nil {
			continue
		}
		o := fmt.Sprint(p.Model.FamilyOrigins(pfx))
		if ids[o] == 0 {
			ids[o] = len(ids) + 1
		}
		u.origins = ids[o]
	}
}

// passName names a pass in WorkerErrors.
func passName(ps *pass) string {
	if ps.region == "" {
		return ps.u.prefix
	}
	return ps.u.prefix + "@" + ps.region
}

// runExecutor drives executor i of the pool: connect (with backoff),
// report idle and run the pass the scheduler puts in its 1-slot passes
// channel, one at a time, and convert connection deaths into re-queues.
// It abandons the executor after MaxConnFailures consecutive
// connection-level failures.
func runExecutor(wg *sync.WaitGroup, i int, e executor, req Request, opts Options, rng *rand.Rand,
	passes <-chan *pass, events chan<- event, stop <-chan struct{}) {
	defer wg.Done()
	defer e.disconnect()
	failures := 0 // consecutive connection-level failures

	send := func(ev event) {
		ev.exec, ev.addr = i, e.name()
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
		send(event{kind: evIdle})
		var ps *pass
		select {
		case <-stop:
			return
		case ps = <-passes:
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
