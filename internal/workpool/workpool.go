// Package workpool is the checkpoint's one fan-out primitive: a fixed
// budget of long-lived workers that any number of loops — nested or
// concurrent — share.
//
// A Pool of n has n-1 background helpers; the goroutine calling For is the
// n-th worker. For publishes its loop, claims chunks off an atomic cursor
// itself and merely invites idle helpers to join, so it finishes whether or
// not anyone answers. That makes nested use deadlock-free by construction
// (a site task running on a helper calls an engine phase, which calls For
// again) and a pool of 1 the plain sequential loop. A helper that runs out
// of chunks in one loop moves to the next open one, oldest first: after the
// cold sites' whole checkpoints are done it is stealing E-step containers
// from the worker still inside the hot site's Engine.Run.
package workpool

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Pool is a fixed budget of workers shared by every For on it. For may be
// called from any goroutine, including from inside another For's fn.
type Pool struct {
	n    int
	wake chan struct{} // one token per invitation; stale tokens cost a rescan
	quit chan struct{}
	stop sync.Once
	wg   sync.WaitGroup

	mu   sync.Mutex
	open []*call // published loops, oldest first
	free []*call // retired records awaiting reuse
	seq  uint64

	calls, helped, busy atomic.Int64
}

// call is one published For.
type call struct {
	fn       func(lo, hi int)
	n, chunk int
	next     atomic.Int64 // first unclaimed index
	seq      uint64

	// Guarded by Pool.mu.
	helpers  int  // participants other than the caller currently inside
	waiting  bool // the caller is parked on done
	panicked *PanicError

	done chan struct{} // capacity 1: the last helper out signals a waiting caller
}

// PanicError is what For panics with when fn panicked on a helper: the
// original value plus the helper's stack, which would otherwise be lost
// with its goroutine.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("workpool: panic in helper: %v\n%s", e.Value, e.Stack)
}

// New returns a pool with a total budget of n concurrent workers: the
// caller of For plus n-1 helpers, started here and parked until invited.
// n <= 0 means GOMAXPROCS. Close releases the helpers.
func New(n int) *Pool {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	p := &Pool{n: n, wake: make(chan struct{}, n-1), quit: make(chan struct{})}
	p.wg.Add(n - 1)
	for i := 1; i < n; i++ {
		go p.helper()
	}
	return p
}

// Workers returns the pool's total budget.
func (p *Pool) Workers() int { return p.n }

// Close stops the helpers and waits for them to exit. No For may be in
// flight. A closed pool still runs For, on the caller alone.
func (p *Pool) Close() {
	p.stop.Do(func() { close(p.quit) })
	p.wg.Wait()
}

// Stats counts a pool's work since New.
type Stats struct {
	// Workers is the total budget (the caller plus Workers-1 helpers).
	Workers int `json:"workers"`
	// Calls is the number of For loops run.
	Calls int64 `json:"calls"`
	// HelpedChunks is the number of chunks run by someone other than their
	// loop's caller.
	HelpedChunks int64 `json:"helped_chunks"`
	// BusyNS is the time helpers spent inside loops. The caller of the
	// outermost For is busy for its whole duration, so over an interval of
	// wall time T driven by one caller the pool used 1 + BusyNS/T cores.
	BusyNS int64 `json:"busy_ns"`
}

// Stats returns the counters; safe to call concurrently with For.
func (p *Pool) Stats() Stats {
	return Stats{Workers: p.n, Calls: p.calls.Load(), HelpedChunks: p.helped.Load(), BusyNS: p.busy.Load()}
}

// For runs fn over [0, n) in contiguous chunks of at most chunk indices —
// fn(lo, hi) covers [lo, hi) — and returns when every index has been
// visited exactly once. The caller runs chunks itself, starting with
// [0, chunk); idle helpers join for the rest. fn must be safe to run
// concurrently on disjoint ranges. If fn panics, claiming stops, For waits
// for the chunks already running and panics in the caller (with a
// *PanicError when the panic happened on a helper).
func (p *Pool) For(n, chunk int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if chunk < 1 {
		chunk = 1
	}
	p.calls.Add(1)
	if p.n == 1 || n <= chunk {
		for lo := 0; lo < n; lo += chunk {
			fn(lo, min(lo+chunk, n))
		}
		return
	}

	p.mu.Lock()
	var c *call
	if k := len(p.free); k > 0 {
		c, p.free = p.free[k-1], p.free[:k-1]
	} else {
		c = &call{done: make(chan struct{}, 1)}
	}
	p.seq++
	c.fn, c.n, c.chunk, c.seq = fn, n, chunk, p.seq
	c.next.Store(int64(chunk)) // [0, chunk) is the caller's
	p.open = append(p.open, c)
	p.mu.Unlock()
	for invite := min((n-1)/chunk, p.n-1); invite > 0; invite-- {
		select {
		case p.wake <- struct{}{}:
		default: // enough invitations already pending
		}
	}

	finished := false
	defer func() {
		if !finished {
			c.next.Store(int64(n)) // the caller's fn panicked: stop claiming
		}
		if pe := p.retire(c); pe != nil && finished {
			panic(pe)
		}
	}()
	c.run(0, false)
	finished = true
}

// run executes chunks of c starting with the already-claimed one at lo and
// claiming further ones until the cursor passes the end. A guest — anyone
// but the loop's caller — yields the processor after each chunk: the pool
// exists to fill idle cores, and once it keeps all of them busy the
// process's other goroutines (ingest handlers, alert delivery, the WAL sync
// timer) would wait out a 10 ms preemption slice for a turn instead of one
// chunk. With nothing else runnable the yield returns at once.
func (c *call) run(lo int, guest bool) (chunks int64) {
	for ; lo < c.n; lo = int(c.next.Add(int64(c.chunk))) - c.chunk {
		c.fn(lo, min(lo+c.chunk, c.n))
		chunks++
		if guest {
			runtime.Gosched()
		}
	}
	return chunks
}

// retire closes c to new helpers, waits until the ones inside have left —
// lending a hand to loops published after c in the meantime — and recycles
// the record. It returns a helper's panic, if any.
func (p *Pool) retire(c *call) *PanicError {
	p.mu.Lock()
	i := slices.Index(p.open, c)
	p.open = slices.Delete(p.open, i, i+1)
	c.waiting = c.helpers > 0
	waiting := c.waiting
	p.mu.Unlock()
	for waiting {
		select {
		case <-c.done:
			waiting = false
		case <-p.wake:
			// Only loops newer than c: an older one is an ancestor, and
			// picking up, say, another site's whole checkpoint from inside
			// an engine phase would stall that phase behind it.
			p.help(c.seq)
		}
	}
	p.mu.Lock()
	pe := c.panicked
	c.fn, c.waiting, c.panicked = nil, false, nil
	p.free = append(p.free, c)
	p.mu.Unlock()
	return pe
}

// help joins the oldest open loop published after seq that still has
// unclaimed chunks and works on it until none are left. It reports whether
// there was such a loop.
func (p *Pool) help(after uint64) bool {
	p.mu.Lock()
	var c *call
	for _, oc := range p.open {
		if oc.seq > after && oc.next.Load() < int64(oc.n) {
			c = oc
			break
		}
	}
	if c == nil {
		p.mu.Unlock()
		return false
	}
	c.helpers++
	p.mu.Unlock()

	pe := p.work(c)

	p.mu.Lock()
	if pe != nil && c.panicked == nil {
		c.panicked = pe
	}
	c.helpers--
	last := c.helpers == 0 && c.waiting
	p.mu.Unlock()
	if last {
		c.done <- struct{}{}
	}
	return true
}

// work claims and runs chunks of c on behalf of its caller, converting a
// panic in fn into a value the caller can re-raise.
func (p *Pool) work(c *call) (pe *PanicError) {
	defer func() {
		if r := recover(); r != nil {
			c.next.Store(int64(c.n))
			pe = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	p.helped.Add(c.run(int(c.next.Add(int64(c.chunk)))-c.chunk, true))
	return nil
}

// helper is one background worker: parked until invited, then working
// through the open loops until none has a chunk left.
func (p *Pool) helper() {
	defer p.wg.Done()
	for {
		select {
		case <-p.quit:
			return
		case <-p.wake:
		}
		start := time.Now()
		helped := false
		for p.help(0) {
			helped = true
		}
		if helped {
			p.busy.Add(int64(time.Since(start)))
		}
	}
}
