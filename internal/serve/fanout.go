// The fan-out half of the delivery tier: one subscriber per attached
// consumer, holding nothing but its filter and a cursor into the shared
// alert log. The publisher never touches a subscriber's state — it only
// signals the ones whose filter matches (registry.dispatch) — and each
// subscriber reads the log from its cursor under its own lock, so a read
// cannot race another read or a publish, and a dead consumer costs one
// idle struct, not a stalled scheduler.
package serve

import (
	"sync"
	"time"
)

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

	notify chan struct{} // cap 1: "something may have changed"
	done   chan struct{} // closed by shutdown

	closeOnce sync.Once

	// mu is held across a whole log read (lock order: subscriber, then
	// log), so a fetch moves the cursor from exactly where the last one
	// left it.
	mu sync.Mutex
	// next is the cursor: the log position of the next alert not yet
	// examined for this consumer.
	next   int
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

// fetch returns the next batch of alerts (up to max) from the log at the
// cursor and advances the cursor past what it examined. A read that stops
// short of the tail signals the subscriber, so its reader keeps going
// without waiting for the next publish. done reports that no further
// alert can ever arrive.
func (s *subscriber) fetch(max int) (batch []Alert, done bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, true
	}
	batch, next, tail, closed := s.reg.log.page(s.next, max, s.f)
	s.next = next
	if next < tail {
		s.signal()
	}
	return batch, len(batch) == 0 && closed && next >= tail
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

// shutdown detaches the subscriber: wakes any blocked poll or pump
// immediately and removes it from the registry. Idempotent, because both
// a handler's deferred cleanup and its client-disconnect hook may race to
// call it.
func (s *subscriber) shutdown() {
	s.closeOnce.Do(func() {
		close(s.done)
		s.mu.Lock()
		s.closed = true
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
	// Enqueued counts subscriber wakeups, one per match.
	Enqueued int64 `json:"enqueued"`
	// Dropped is always 0: subscribers read the log by cursor, so there
	// is no queue to overflow. Kept for readers of the field.
	Dropped int64 `json:"dropped"`
	// Catchups is always 0, for the same reason as Dropped.
	Catchups int64 `json:"catchups"`
	// SlowestLag is how many log positions the most-behind subscriber's
	// cursor trails the log tail.
	SlowestLag int `json:"slowest_lag"`
}
