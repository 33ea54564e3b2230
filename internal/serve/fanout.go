// The fan-out half of the delivery tier: one subscriber per attached
// consumer, holding a bounded ring of undelivered alerts plus a cursor
// into the shared alert log. The invariant that makes consumer-scale
// fan-out safe: offer (the publisher side) never blocks and never
// allocates past the bound — when a queue is full the subscriber flips to
// lagged and later re-reads the gap from the log by cursor. Delivery is
// therefore at-least-once per subscriber with loss only ever meaning
// "deferred to catch-up", and a dead consumer costs one idle struct, not
// a stalled scheduler.
package serve

import (
	"sync"
	"time"
)

// Queue sizing: rings start small and double up to the configured bound,
// so 100k mostly-idle subscribers don't each pin a full-sized buffer.
const minQueueCap = 8

// subChanBuf is the channel buffer of a channel-mode Subscription.
const subChanBuf = 16

// defaultPollLimit bounds one Poll / GET /alerts batch when the caller
// does not say; maxPollLimit is the hard ceiling.
const (
	defaultPollLimit = 1000
	maxPollLimit     = 10000
)

// pumpIdleWait backstops a channel pump's sleep; registry.wakeAll and
// per-subscriber signals wake it long before this in practice.
const pumpIdleWait = time.Minute

// subscriber is one consumer's delivery state.
type subscriber struct {
	reg *registry
	f   Filter
	max int // queue bound

	notify chan struct{} // cap 1: "something may have changed"
	done   chan struct{} // closed by shutdown

	closeOnce sync.Once

	mu    sync.Mutex
	queue []Alert // ring buffer, len(queue) grows up to max
	head  int
	count int
	// next is the cursor: the log position of the next alert not yet
	// delivered to this consumer. Queue entries below it are stale.
	next int
	// lagged means the queue overflowed (or the subscriber attached behind
	// the log tail) and the continuation must come from the log, not the
	// queue, until a log read reaches the tail again.
	lagged bool
	drops  int64 // offers rejected by a full queue (ever)
	closed bool
}

// signal nudges the consumer without blocking (the cap-1 channel absorbs
// bursts into one wakeup).
func (s *subscriber) signal() {
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// offer hands one dispatched alert to the subscriber; called by the
// publisher, never blocks. A full queue marks the subscriber lagged and
// drops the copy — the alert stays in the log and the consumer's cursor
// will pick it up — so a stalled consumer never back-pressures dispatch.
func (s *subscriber) offer(a Alert) {
	s.mu.Lock()
	if s.closed || a.Seq < s.next {
		s.mu.Unlock()
		return
	}
	if s.lagged {
		// Already catching up from the log; the cursor will reach a.Seq.
		s.mu.Unlock()
		s.signal()
		return
	}
	if s.count >= s.max {
		// Overflow: flip to lagged catch-up and release the queued copies —
		// everything from next onward will be re-read from the log.
		s.lagged = true
		s.drops++
		s.queue = nil
		s.head = 0
		s.count = 0
		s.mu.Unlock()
		s.reg.dropped.Add(1)
		s.signal()
		return
	}
	s.pushLocked(a)
	s.mu.Unlock()
	s.reg.enqueued.Add(1)
	s.signal()
}

// pushLocked appends to the ring, growing it toward max as needed.
func (s *subscriber) pushLocked(a Alert) {
	if s.count == len(s.queue) {
		newCap := len(s.queue) * 2
		if newCap < minQueueCap {
			newCap = minQueueCap
		}
		if newCap > s.max {
			newCap = s.max
		}
		grown := make([]Alert, newCap)
		for i := 0; i < s.count; i++ {
			grown[i] = s.queue[(s.head+i)%len(s.queue)]
		}
		s.queue = grown
		s.head = 0
	}
	s.queue[(s.head+s.count)%len(s.queue)] = a
	s.count++
}

// popLocked removes and returns the oldest queued alert.
func (s *subscriber) popLocked() Alert {
	a := s.queue[s.head]
	s.queue[s.head] = Alert{}
	s.head = (s.head + 1) % len(s.queue)
	s.count--
	return a
}

// fetch returns the next batch of alerts (up to max) and advances the
// cursor. The queue is the fast path; whenever the queue cannot prove it
// holds the continuation — the subscriber is lagged, or the log has grown
// past the cursor with nothing queued (filtered-out alerts, a fresh
// attachment behind the tail, or a racing publish) — fetch reads the log
// directly and the cursor jumps over the examined range. done reports
// that no further alert can ever arrive.
func (s *subscriber) fetch(max int) (batch []Alert, done bool) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, true
	}
	// Discard queue entries already covered by an earlier log read.
	for s.count > 0 && s.queue[s.head].Seq < s.next {
		s.popLocked()
	}
	if !s.lagged {
		for s.count > 0 && len(batch) < max {
			a := s.popLocked()
			batch = append(batch, a)
			s.next = a.Seq + 1
		}
	}
	next := s.next
	lagged := s.lagged
	s.mu.Unlock()
	if len(batch) > 0 {
		return batch, false
	}

	log := s.reg.log
	if lagged || next < log.len() {
		out, newNext := log.page(next, max, s.f)
		if s.finishPage(newNext, lagged) {
			return nil, true
		}
		if len(out) > 0 {
			return out, false
		}
	}

	if log.isClosed() {
		s.mu.Lock()
		done = !s.lagged && s.count == 0 && s.next >= log.len()
		s.mu.Unlock()
		return nil, done
	}
	return nil, false
}

// finishPage is the second half of a log read: it moves the cursor to
// newNext, the position log.page (called without mu held) read up to, and
// decides whether a read that set out lagged has caught up. closed reports
// that the subscriber was shut down meanwhile.
func (s *subscriber) finishPage(newNext int, lagged bool) (closed bool) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return true
	}
	if newNext > s.next {
		s.next = newNext
	}
	// Caught up only if the cursor is at the log's tail now, under mu: the
	// publisher appends an alert to the log before it offers it, so every
	// alert whose offer was dropped while lagged is below the tail, and the
	// cursor has passed it. The tail the page itself reached proves nothing
	// of the kind — the queue may have overflowed, and dropped newer alerts,
	// after the page was read; clearing lagged on it let the next queued
	// alert be delivered past the dropped ones.
	caughtUp := s.lagged && lagged && newNext >= s.reg.log.len()
	if caughtUp {
		s.lagged = false
	} else if s.lagged {
		// More backlog than one page; keep draining without waiting for the
		// next publish.
		s.signal()
	}
	s.mu.Unlock()
	if caughtUp {
		s.reg.catchups.Add(1)
	}
	return false
}

// wait blocks until a signal arrives, d elapses, or the subscriber is
// shut down; it returns false only for shutdown.
func (s *subscriber) wait(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-s.notify:
		return true
	case <-t.C:
		return true
	case <-s.done:
		return false
	}
}

// poll is the cursor-mode read loop: fetch, wait, retry until a batch is
// available, the wait budget runs out, or delivery is finished.
func (s *subscriber) poll(max int, wait time.Duration) ([]Alert, bool) {
	if max <= 0 {
		max = defaultPollLimit
	}
	deadline := time.Now().Add(wait)
	for {
		batch, done := s.fetch(max)
		if len(batch) > 0 || done {
			return batch, done
		}
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return nil, false
		}
		if !s.wait(remaining) {
			return nil, true
		}
	}
}

// pump feeds a channel-mode Subscription: deliver batches to ch in order
// until delivery finishes or the subscription closes, then close ch.
func (s *subscriber) pump(ch chan<- Alert) {
	defer close(ch)
	for {
		batch, done := s.fetch(subChanBuf)
		for _, a := range batch {
			select {
			case ch <- a:
			case <-s.done:
				return
			}
		}
		if done {
			return
		}
		if len(batch) == 0 && !s.wait(pumpIdleWait) {
			return
		}
	}
}

// cursor returns the resume position; see Subscription.Cursor.
func (s *subscriber) cursor() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.next
}

// everLagged reports whether the queue ever overflowed.
func (s *subscriber) everLagged() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.drops > 0
}

// shutdown detaches the subscriber: wakes any blocked poll or pump
// immediately and removes it from the registry. Idempotent, because both
// a handler's deferred cleanup and its client-disconnect hook may race to
// call it.
func (s *subscriber) shutdown() {
	s.closeOnce.Do(func() {
		close(s.done)
		s.mu.Lock()
		s.closed = true
		s.queue = nil
		s.head = 0
		s.count = 0
		s.mu.Unlock()
		s.reg.unregister(s)
	})
}

// subscribeChannel builds a channel-mode Subscription: a registered
// subscriber plus the pump goroutine feeding its channel.
func (r *registry) subscribeChannel(f Filter, from int) *Subscription {
	sub := r.register(f, from)
	ch := make(chan Alert, subChanBuf)
	go sub.pump(ch)
	return &Subscription{C: ch, sub: sub}
}

// DeliveryStats is the delivery tier's accounting, surfaced under
// Stats.Delivery and in GET /stats.
type DeliveryStats struct {
	// Subscribers is the number of attached subscriptions.
	Subscribers int `json:"subscribers"`
	// ShardMatches counts alerts matched to subscribers via each tag
	// shard of the registry.
	ShardMatches []int64 `json:"shard_matches,omitempty"`
	// ScanMatches counts matches found via the site, pattern and
	// broadcast lists (everything not routed through a tag shard).
	ScanMatches int64 `json:"scan_matches"`
	// Enqueued counts alerts handed to subscriber queues.
	Enqueued int64 `json:"enqueued"`
	// Dropped counts queue overflows: each one flipped a subscriber into
	// lagged catch-up (the alerts themselves remain readable in the log).
	Dropped int64 `json:"dropped"`
	// Catchups counts lagged subscribers that finished re-reading the log
	// and returned to queue delivery.
	Catchups int64 `json:"catchups"`
	// Lagged is the number of subscribers currently in catch-up.
	Lagged int `json:"lagged"`
	// MaxQueueDepth is the deepest subscriber queue right now.
	MaxQueueDepth int `json:"max_queue_depth"`
	// SlowestLag is how many log positions the most-behind subscriber's
	// cursor trails the log tail.
	SlowestLag int `json:"slowest_lag"`
}
