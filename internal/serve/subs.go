// The alert log: an append-only sequence of continuous-query matches and
// the delivery tier's only store. A subscriber (registry.go / fanout.go)
// is a filter plus a cursor into it; the publisher only wakes the
// subscribers whose filter matches, and each reads the log from its own
// cursor, so a slow subscriber delays only itself: never the scheduler,
// never its peers. Tag filters read through the log's per-tag posting
// lists; every other filter scans. With durability enabled every
// published alert also lands in the WAL's alert segment, which is what
// lets a cursor survive a daemon kill -9.
package serve

import (
	"sort"
	"sync"
	"time"

	"rfidtrack/internal/model"
	"rfidtrack/internal/stream"
	"rfidtrack/internal/wal"
)

// Alert is one continuous-query match, annotated with the site that raised
// it and its position in the server-global alert sequence. It is the type
// the WAL persists, so publishing, snapshotting and restoring an alert
// copy no fields.
type Alert = wal.Alert

// logScanChunk bounds how many log entries (or posting-list entries) one
// read examines under the log's lock before yielding; the reader resumes
// from the returned position on its next fetch.
const logScanChunk = 4096

// alertLog is the shared alert sequence: the scheduler publishes in
// sequence order (via Server.publishAlert, which also appends to the WAL
// and wakes the registry's matching subscribers), subscribers and pollers
// read by position.
type alertLog struct {
	mu      sync.Mutex
	entries []Alert
	// byTag is each tag's posting list: the ascending positions of its
	// alerts in entries.
	byTag map[model.TagID][]int
	// nextPub is the publish cursor: the sequence number the next publish
	// call will use. After recovery restores a WAL-replayed tail it trails
	// len(entries), and the catch-up checkpoints' re-fired matches consume
	// restored positions instead of appending duplicates.
	nextPub  int
	closed   bool
	finished bool // closed by graceful Shutdown (every alert final), not a crash
}

func newAlertLog() *alertLog {
	return &alertLog{byTag: make(map[model.TagID][]int)}
}

// appendLocked adds a at the log's tail, numbering it by position.
func (l *alertLog) appendLocked(a Alert) Alert {
	a.Seq = len(l.entries)
	l.entries = append(l.entries, a)
	l.byTag[a.Tag] = append(l.byTag[a.Tag], a.Seq)
	return a
}

// publish appends one match at the publish cursor. fresh is false when
// nothing new was appended: after close (so a cluster reused outside its
// server cannot grow a dead log), or when the cursor still trails a
// recovery-restored tail — the restored entry is authoritative and the
// re-fired match is its positional duplicate.
func (l *alertLog) publish(site int, pattern string, m stream.Match) (a Alert, fresh bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return Alert{}, false
	}
	if l.nextPub < len(l.entries) {
		l.nextPub++
		return l.entries[l.nextPub-1], false
	}
	a = l.appendLocked(Alert{
		Site:    site,
		Tag:     m.Tag,
		First:   m.First,
		Last:    m.Last,
		Values:  append([]float64(nil), m.Values...),
		Pattern: pattern,
	})
	l.nextPub = len(l.entries)
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
	defer l.mu.Unlock()
	l.entries = l.entries[:0]
	clear(l.byTag)
	for _, a := range entries {
		l.appendLocked(a)
	}
	l.nextPub = len(l.entries)
}

// restoreTail appends one WAL-replayed post-snapshot alert WITHOUT
// advancing the publish cursor: the recovery catch-up checkpoints re-fire
// exactly these matches (the replay-determinism contract), and publish
// dedups them against the restored entries by position — so resumed
// consumer cursors keep naming the same alerts they did before the crash.
func (l *alertLog) restoreTail(a Alert) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.appendLocked(a)
}

// len returns the number of published alerts.
func (l *alertLog) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.entries)
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

// close stops publication; published alerts stay readable. The server
// wakes the subscribers afterwards (registry.wakeAll) so they see it.
func (l *alertLog) close() {
	l.mu.Lock()
	l.closed = true
	l.mu.Unlock()
}

// finish closes the log and marks it gracefully complete; see isFinished.
func (l *alertLog) finish() {
	l.mu.Lock()
	l.closed = true
	l.finished = true
	l.mu.Unlock()
}

// since returns the alerts with Seq >= since.
func (l *alertLog) since(since int) []Alert {
	l.mu.Lock()
	defer l.mu.Unlock()
	if since < 0 {
		since = 0
	}
	if len(l.entries) <= since {
		return nil
	}
	return append([]Alert(nil), l.entries[since:]...)
}

// page copies up to limit alerts matching f from position from on. A tag
// filter walks that tag's posting list, any other filter scans the log;
// either walk examines at most logScanChunk entries, so a deep backlog
// cannot hold the log's lock across all of it. next is the first position
// not yet examined (the caller's new cursor), or the tail once the
// posting list is exhausted; tail and closed describe the log as the page
// saw it.
func (l *alertLog) page(from, limit int, f Filter) (out []Alert, next, tail int, closed bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	from = max(from, 0)
	tail, closed = len(l.entries), l.closed
	if f.Tag >= 0 {
		post := l.byTag[f.Tag]
		k := sort.SearchInts(post, from)
		for end := min(len(post), k+logScanChunk); k < end && len(out) < limit; k++ {
			if a := l.entries[post[k]]; f.Match(a) {
				out = append(out, a)
			}
		}
		if k < len(post) {
			return out, post[k], tail, closed
		}
		return out, max(from, tail), tail, closed
	}
	i := from
	for end := min(tail, from+logScanChunk); i < end && len(out) < limit; i++ {
		if f.Match(l.entries[i]) {
			out = append(out, l.entries[i])
		}
	}
	return out, i, tail, closed
}

// Subscription is one consumer's attachment to the delivery tier. It runs
// in one of two modes. Channel mode (Subscribe / SubscribeFilter): alerts
// arrive in publication order on C, fed by a pump goroutine, and C is
// closed after Close or when the server shuts down with every alert
// delivered. Cursor mode (SubscribeCursor): C is nil and the consumer
// reads batches with Poll, resuming from an explicit log position — the
// in-process twin of the HTTP cursor long-poll.
//
// Either way the subscription holds no copies: it reads the alert log from
// its cursor, so a consumer that falls behind the publish rate just trails
// the tail (DeliveryStats.SlowestLag) and never back-pressures the
// publisher.
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

// Poll returns the next batch of alerts for a cursor-mode subscription,
// waiting up to wait when none are available yet. done reports that no
// further alert can ever arrive: the subscription was closed, or the
// server shut down and every published alert has been consumed. Poll is
// for cursor-mode subscriptions (C == nil); channel mode reads C.
func (s *Subscription) Poll(max int, wait time.Duration) (alerts []Alert, done bool) {
	return s.sub.poll(max, wait)
}
