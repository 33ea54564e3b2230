// The alert log: an append-only sequence of continuous-query matches, the
// source of truth the delivery tier (registry.go / fanout.go) fans out
// from. The log is the buffer — bounded per-subscriber queues hold only
// each consumer's undelivered continuation, and a consumer that falls
// behind catches up by reading the log from its cursor — so a slow
// subscriber delays only itself: never the scheduler, never its peers.
// With durability enabled every published alert also lands in the WAL's
// alert segment, which is what lets a cursor survive a daemon kill -9.
package serve

import (
	"sync"
	"time"

	"rfidtrack/internal/model"
	"rfidtrack/internal/stream"
)

// Alert is one continuous-query match, annotated with the site that raised
// it and its position in the server-global alert sequence.
type Alert struct {
	// Seq is the alert's index in the server's append-only log; long-poll
	// clients resume from their last Seq + 1 (or, equivalently, the
	// cursor returned alongside each page).
	Seq int `json:"seq"`
	// Site is the site whose query engine fired.
	Site int `json:"site"`
	// Tag is the alerted object.
	Tag model.TagID `json:"tag"`
	// First and Last span the matched exposure episode.
	First model.Epoch `json:"first"`
	Last  model.Epoch `json:"last"`
	// Values are the episode's collected measurements (temperatures).
	Values []float64 `json:"values,omitempty"`
	// Pattern is the registry key of the query that fired ("q1", "q2"),
	// the per-pattern subscription dimension.
	Pattern string `json:"pattern,omitempty"`
}

// logScanChunk bounds how many log entries one catch-up read examines
// under the log's lock before yielding; a lagged consumer resumes from
// the returned position on its next fetch.
const logScanChunk = 4096

// alertLog is the shared alert buffer: the scheduler publishes in
// sequence order (via Server.publishAlert, which also appends to the WAL
// and dispatches to the registry), subscribers and pollers read by index.
type alertLog struct {
	mu      sync.Mutex
	cond    *sync.Cond
	entries []Alert
	// nextPub is the publish cursor: the sequence number the next publish
	// call will use. After recovery restores a WAL-replayed tail it trails
	// len(entries), and the catch-up checkpoints' re-fired matches consume
	// restored positions instead of appending duplicates.
	nextPub  int
	closed   bool
	finished bool // closed by graceful Shutdown (every alert final), not a crash
}

func newAlertLog() *alertLog {
	l := &alertLog{}
	l.cond = sync.NewCond(&l.mu)
	return l
}

// publish appends one match at the publish cursor and wakes every waiter.
// fresh is false when nothing new was appended: after close (so a cluster
// reused outside its server cannot grow a dead log), or when the cursor
// still trails a recovery-restored tail — the restored entry is
// authoritative and the re-fired match is its positional duplicate.
func (l *alertLog) publish(site int, pattern string, m stream.Match) (a Alert, fresh bool) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return Alert{}, false
	}
	if l.nextPub < len(l.entries) {
		a = l.entries[l.nextPub]
		l.nextPub++
		l.mu.Unlock()
		return a, false
	}
	a = Alert{
		Seq:     len(l.entries),
		Site:    site,
		Tag:     m.Tag,
		First:   m.First,
		Last:    m.Last,
		Values:  append([]float64(nil), m.Values...),
		Pattern: pattern,
	}
	l.entries = append(l.entries, a)
	l.nextPub = len(l.entries)
	l.mu.Unlock()
	l.cond.Broadcast()
	return a, true
}

// export copies the log for a durable snapshot.
func (l *alertLog) export() []Alert {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Alert(nil), l.entries...)
}

// restore seeds the log from a snapshot, reassigning Seq by position, and
// sets the publish cursor past it: snapshotted alerts were published by
// pre-snapshot checkpoints whose match history the query engines restore,
// so they will never re-fire.
func (l *alertLog) restore(entries []Alert) {
	l.mu.Lock()
	l.entries = l.entries[:0]
	for i, a := range entries {
		a.Seq = i
		l.entries = append(l.entries, a)
	}
	l.nextPub = len(l.entries)
	l.mu.Unlock()
	l.cond.Broadcast()
}

// restoreTail appends one WAL-replayed post-snapshot alert WITHOUT
// advancing the publish cursor: the recovery catch-up checkpoints re-fire
// exactly these matches (the replay-determinism contract), and publish
// dedups them against the restored entries by position — so resumed
// consumer cursors keep naming the same alerts they did before the crash.
func (l *alertLog) restoreTail(a Alert) {
	l.mu.Lock()
	a.Seq = len(l.entries)
	l.entries = append(l.entries, a)
	l.mu.Unlock()
	l.cond.Broadcast()
}

// len returns the number of published alerts.
func (l *alertLog) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.entries)
}

// isClosed reports whether the log has been closed.
func (l *alertLog) isClosed() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.closed
}

// isFinished reports whether the log was closed by a graceful shutdown:
// every published alert is final and no daemon restart will extend the
// sequence. A crash-stop close (Abort, or the state a kill -9 leaves)
// does NOT finish the log — a restarted daemon continues it — which is
// what tells a following client whether "no more alerts" means done or
// reconnect-and-resume.
func (l *alertLog) isFinished() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.finished
}

// close wakes every waiter permanently; published alerts stay readable.
func (l *alertLog) close() {
	l.mu.Lock()
	l.closed = true
	l.mu.Unlock()
	l.cond.Broadcast()
}

// finish closes the log and marks it gracefully complete; see isFinished.
func (l *alertLog) finish() {
	l.mu.Lock()
	l.closed = true
	l.finished = true
	l.mu.Unlock()
	l.cond.Broadcast()
}

// since returns the alerts with Seq >= since. When none exist yet it
// waits up to wait (0 = no waiting) for one to be published.
func (l *alertLog) since(since int, wait time.Duration) []Alert {
	if since < 0 {
		since = 0
	}
	deadline := time.Now().Add(wait)
	l.mu.Lock()
	defer l.mu.Unlock()
	for len(l.entries) <= since && !l.closed && wait > 0 && time.Now().Before(deadline) {
		// cond has no timed wait; poke the condition at a coarse tick. The
		// broadcast on publish wakes us immediately in the common case.
		remaining := time.Until(deadline)
		if remaining <= 0 {
			break
		}
		timedCondWait(l.cond, remaining)
	}
	if len(l.entries) <= since {
		return nil
	}
	out := make([]Alert, len(l.entries)-since)
	copy(out, l.entries[since:])
	return out
}

// page copies up to max alerts matching f starting at position from,
// examining at most logScanChunk entries so a deep catch-up cannot hold
// the log's lock across the whole backlog. next is the position after the
// last entry examined (the caller's new cursor).
func (l *alertLog) page(from, max int, f Filter) (out []Alert, next int) {
	if from < 0 {
		from = 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	i := from
	limit := from + logScanChunk
	for i < len(l.entries) && i < limit && len(out) < max {
		if f.Match(l.entries[i]) {
			out = append(out, l.entries[i])
		}
		i++
	}
	return out, i
}

// timedCondWait waits on cond, giving up after d. The caller holds
// cond.L; a helper goroutine broadcasts at the deadline so Wait returns.
func timedCondWait(cond *sync.Cond, d time.Duration) {
	t := time.AfterFunc(d, cond.Broadcast)
	defer t.Stop()
	cond.Wait()
}

// Subscription is one consumer's attachment to the delivery tier. It runs
// in one of two modes. Channel mode (Subscribe / SubscribeFilter): alerts
// arrive in publication order on C, fed by a pump goroutine, and C is
// closed after Close or when the server shuts down with every alert
// delivered. Cursor mode (SubscribeCursor): C is nil and the consumer
// reads batches with Poll, resuming from an explicit log position — the
// in-process twin of the HTTP cursor long-poll.
//
// Either way the subscription's queue is bounded: a consumer that falls
// behind the publish rate is marked lagged and transparently catches up
// from the log by cursor instead of back-pressuring the publisher (see
// DeliveryStats for the drop/catch-up accounting).
type Subscription struct {
	// C delivers alerts for channel-mode subscriptions; nil in cursor mode.
	C <-chan Alert

	sub  *subscriber
	once sync.Once
}

// Close stops the subscription, unregisters it from the delivery tier and
// closes C (channel mode). It takes effect immediately: a pump asleep
// with no alert coming wakes now, and an in-flight Poll returns now —
// cancellation never waits for the next alert or a poll tick. Idempotent.
func (s *Subscription) Close() {
	s.once.Do(s.sub.shutdown)
}

// Cursor returns the subscription's resume position: the log position of
// the next alert it has not consumed. Encode it with
// stream.EncodeAlertCursor to resume over HTTP, or pass it straight back
// to SubscribeCursor.
func (s *Subscription) Cursor() int { return s.sub.cursor() }

// Lagged reports whether the subscription has ever overflowed its bounded
// queue and fallen back to cursor catch-up from the log.
func (s *Subscription) Lagged() bool { return s.sub.everLagged() }

// Poll returns the next batch of alerts for a cursor-mode subscription,
// waiting up to wait when none are available yet. done reports that no
// further alert can ever arrive: the subscription was closed, or the
// server shut down and every published alert has been consumed. Poll is
// for cursor-mode subscriptions (C == nil); channel mode reads C.
func (s *Subscription) Poll(max int, wait time.Duration) (alerts []Alert, done bool) {
	return s.sub.poll(max, wait)
}
