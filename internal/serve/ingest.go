// The ingest seam: how readings and departures get from an exported edge
// into the stripes.
//
// There is one way in for readings, ingestRun — a run of one site's
// readings is routed to its stripe and, under one hold of the stripe lock,
// bucketed and logged by ingestSectionLocked: every stretch of admissible
// readings in bulk, as one write-ahead-log run record. The exported edges
// are adapters that cut their input into runs: Ingest gathers consecutive
// same-site events, IngestBatch is one run, IngestFrame hands over each
// section's zero-copy view, and WAL recovery (durable.go) hands over the
// log's runs as it reads them. What a reading must satisfy to be bucketed
// is written once, in admit.
package serve

import (
	"fmt"
	"sync"
	"sync/atomic"

	"rfidtrack/internal/dist"
	"rfidtrack/internal/model"
	"rfidtrack/internal/stream"
)

// maxRun bounds the runs a runGatherer cuts, so its pooled buffer stays
// 64 KiB however long the stream.
const maxRun = 4096

// runPool recycles the gatherers' run buffers, each of capacity maxRun.
var runPool = sync.Pool{New: func() any {
	b := make([]dist.Reading, 0, maxRun)
	return &b
}}

// beginIngest admits one producer call (or Drain barrier) unless Shutdown
// has begun. On success the caller owes s.ingestWG.Done(), which is what
// Shutdown waits on before it runs the final checkpoints.
func (s *Server) beginIngest() error {
	s.closeMu.RLock()
	defer s.closeMu.RUnlock()
	if s.closed {
		return ErrClosed
	}
	s.ingestWG.Add(1)
	return nil
}

// ingestRun validates and interval-buckets one site's readings under one
// hold of the stripe lock and returns the highest accepted epoch (-1 when
// none). recs is not retained. The error is a routing refusal — a site the
// deployment does not have or this peer does not own: nothing was counted,
// the adapter decides whether that fails the call or counts the run invalid.
func (s *Server) ingestRun(site int, recs []dist.Reading) (model.Epoch, error) {
	if site < 0 || site >= len(s.shards) {
		return -1, fmt.Errorf("serve: site %d out of range [0,%d)", site, len(s.shards))
	}
	if s.owner != nil && s.owner[site] != s.cfg.Self {
		return -1, fmt.Errorf("serve: site %d is owned by peer %d, not this daemon (peer %d)", site, s.owner[site], s.cfg.Self)
	}
	sh := s.shards[site]
	sh.mu.Lock()
	maxT := s.ingestSectionLocked(sh, recs)
	sh.mu.Unlock()
	return maxT, nil
}

// runGatherer cuts a stream of readings into runs for ingestRun:
// consecutive same-site readings, at most maxRun of them. A time-ordered
// multi-site stream costs one lock hop per site switch, a site-homogeneous
// one a hop per maxRun. Unroutable runs are counted invalid.
type runGatherer struct {
	s    *Server
	buf  *[]dist.Reading // pooled; holds the open run
	site int             // of the open run
	maxT model.Epoch     // highest epoch accepted so far
}

func (s *Server) gatherRuns() runGatherer {
	return runGatherer{s: s, buf: runPool.Get().(*[]dist.Reading), maxT: -1}
}

func (g *runGatherer) add(site int, r dist.Reading) {
	if site != g.site || len(*g.buf) == maxRun {
		g.flush()
	}
	g.site = site
	*g.buf = append(*g.buf, r)
}

// flush ingests the open run, so that what follows takes effect after it.
func (g *runGatherer) flush() {
	if len(*g.buf) == 0 {
		return
	}
	t, err := g.s.ingestRun(g.site, *g.buf)
	if err != nil {
		g.s.rejectMisc(len(*g.buf), "readings refused: %v", err)
	}
	g.maxT = max(g.maxT, t)
	*g.buf = (*g.buf)[:0]
}

// done flushes, releases the buffer and returns the highest accepted epoch.
func (g *runGatherer) done() model.Epoch {
	g.flush()
	runPool.Put(g.buf)
	return g.maxT
}

// Ingest validates and interval-buckets the events on the calling
// goroutine — by the time it returns, every accepted event is buffered in
// its site's shard and will be observed by that interval's checkpoint.
// It blocks only on per-shard backpressure (a full stripe behind a due
// checkpoint) and returns ErrClosed once Shutdown has begun. Events within
// one Δ-interval may arrive in any order; an event older than an
// already-sealed checkpoint is counted late and dropped. The slice is not
// retained: the caller may reuse it as soon as Ingest returns.
func (s *Server) Ingest(events []Event) error {
	if len(events) == 0 {
		return nil
	}
	if err := s.beginIngest(); err != nil {
		return err
	}
	defer s.ingestWG.Done()
	g := s.gatherRuns()
	for i := range events {
		switch ev := &events[i]; ev.Type {
		case TypeReading:
			g.add(ev.Site, dist.Reading{T: ev.T, ID: ev.Tag, Mask: ev.Mask})
		case TypeDepart:
			g.flush()
			s.applyDeparture(dist.Departure{Object: ev.Object, From: ev.From, To: ev.To, At: ev.At})
		default:
			g.flush()
			s.rejectMisc(1, "unknown event type %q", ev.Type)
		}
	}
	s.publishTime(g.done())
	return s.walCommit()
}

// IngestBatch is the single-site edge: the batch is one run, validated and
// bucketed under one lock acquisition, allocation-free in steady state.
// The readings slice is not retained; the caller may reuse it immediately.
// An unroutable site is an error (the batch is site-addressed), unlike
// Ingest and IngestFrame, which count unroutable readings invalid.
func (s *Server) IngestBatch(site int, readings []dist.Reading) error {
	if len(readings) == 0 {
		return nil
	}
	if err := s.beginIngest(); err != nil {
		return err
	}
	defer s.ingestWG.Done()
	maxT, err := s.ingestRun(site, readings)
	if err != nil {
		return err
	}
	s.publishTime(maxT)
	return s.walCommit()
}

// IngestFrame is the binary multi-site edge: every section of the batch
// frame is one run — where the section's bytes ARE readings on this
// machine, a view over the frame, no decode and no copy until the bucket
// append. frame must be exactly one frame, and it is fully checked (magic,
// length, CRC, section tiling, no bytes after it) before any record is
// applied: a torn, corrupt or over-long buffer is refused whole — counted
// in Stats.BadFrames — never half-ingested. The frame buffer is not
// retained. The returned count is the number of records in the frame's
// routable sections (like IngestBatch's acknowledgement, it does not
// subtract per-reading validation rejects).
func (s *Server) IngestFrame(frame []byte) (queued int, err error) {
	if err := s.beginIngest(); err != nil {
		return 0, err
	}
	defer s.ingestWG.Done()
	batchMax := model.Epoch(-1)
	_, err = stream.DecodeBatchFrame(frame, func(sec stream.BatchSection) error {
		t, rerr := s.ingestRun(sec.Site, dist.ReadingsFromWire(sec.Raw()))
		if rerr != nil {
			s.rejectMisc(sec.Len(), "frame section refused: %v", rerr)
			return nil
		}
		batchMax = max(batchMax, t)
		queued += sec.Len()
		return nil
	})
	if err != nil {
		s.invMu.Lock()
		s.badFrames++
		s.lastInv = err.Error()
		s.invMu.Unlock()
		return 0, fmt.Errorf("serve: refused batch frame: %w", err)
	}
	s.publishTime(batchMax)
	return queued, s.walCommit()
}

// IngestDeparture is a convenience wrapper ingesting one departure.
func (s *Server) IngestDeparture(d dist.Departure) error {
	return s.Ingest([]Event{Depart(d)})
}

// late is admit's verdict on a reading whose checkpoint already sealed.
const late = "late"

// admit is the one statement of what a reading must satisfy to be bucketed
// on this stripe: "" admits it, anything else is why not. bound is the
// exclusive epoch bound (Server.epochBound): past the horizon a reading
// could never be observed by any checkpoint, and refusing it also keeps
// stream time bounded. Caller holds mu.
func (sh *shard) admit(r *dist.Reading, bound, interval model.Epoch) string {
	switch {
	case uint(r.ID) >= uint(len(sh.kinds)):
		return "unknown tag"
	case sh.kinds[r.ID] != model.KindItem && sh.kinds[r.ID] != model.KindCase:
		return "tag is neither a case nor an item"
	case r.Mask == 0 || r.Mask>>sh.readers != 0:
		return "mask is empty or names a reader the site does not have"
	case r.T < 0 || r.T >= bound:
		return "epoch is negative or at/past the bound"
	case r.T < sh.lateBefore:
		return late
	case int(r.T/interval)-sh.base >= maxShardIntervals:
		return "epoch would grow the bucket window past its cap"
	}
	return ""
}

// ingestSectionLocked buckets a run — possibly a view over a request or
// log buffer, never retained — with per-stretch instead of per-record
// bookkeeping: a validation-only scan finds the next stretch of admissible
// records, the stretch is bucketed and logged in bulk, and the inadmissible
// record that ended it is counted as a reject or a late drop. A clean run is
// one stretch. Caller holds sh.mu. Returns the highest accepted epoch, -1
// when none.
//
// Backpressure: while a checkpoint is due the run is admitted in slices of
// the stripe's free room, and a full stripe waits for the checkpoint to
// drain it — then admits afresh, because the checkpoint may have sealed past
// the readings that waited. Without a runnable checkpoint the producers are
// the only source of progress, so the bound does not apply and the slice is
// the whole run. Wait releases the stripe lock; everything bucketed before
// it is already in the log, so a snapshot rotating segments mid-wait
// strands nothing.
func (s *Server) ingestSectionLocked(sh *shard, recs []dist.Reading) model.Epoch {
	maxT := model.Epoch(-1)
	for len(recs) > 0 {
		room := len(recs)
		if s.checkpointDue() && !s.failed.Load() {
			if room = min(room, s.cfg.QueueSize-sh.backlog); room <= 0 {
				sh.waits++
				sh.cond.Wait()
				continue
			}
		}
		bound, _ := s.epochBound()
		clean, t := 0, model.Epoch(-1) // records proven admissible, their highest epoch
		why := ""                      // what is wrong with recs[clean], if it ended the stretch
		for ; clean < room; clean++ {
			if why = sh.admit(&recs[clean], bound, s.cfg.Interval); why != "" {
				break
			}
			t = max(t, recs[clean].T)
		}
		if clean > 0 {
			s.bucketLocked(sh, recs[:clean])
			maxT = max(maxT, t)
		}
		if why != "" {
			r := &recs[clean]
			sh.received++
			if why == late {
				sh.late++
			} else {
				s.rejectf("site %d reading t=%d tag=%d mask=%#x: %s (bound %d)", sh.site, r.T, r.ID, r.Mask, why, bound)
			}
			clean++
		}
		recs = recs[clean:]
	}
	return maxT
}

// bucketLocked buckets and logs a stretch of admitted readings: one bulk
// append per same-interval run, into chunks that never move (see
// bucketRunsLocked); the appends copy, so nothing retains recs. Logging
// inside the bucketing's critical section makes the log order the bucket
// order, cleanly partitioned by a snapshot's segment rotation (which also
// takes this lock). Caller holds sh.mu.
func (s *Server) bucketLocked(sh *shard, recs []dist.Reading) {
	sh.bucketRunsLocked(recs, s.cfg.Interval)
	sh.received += len(recs)
	if s.walOn.Load() {
		if err := s.wal.AppendReadings(sh.site, recs); err != nil {
			s.walFail(err)
		}
	}
}

// walFail latches the first durability failure: the pipeline keeps
// serving reads but reports unhealthy, since an accepted event may no
// longer survive a crash.
func (s *Server) walFail(err error) {
	s.walErrMu.Lock()
	if s.walErr == nil {
		s.walErr = err
	}
	s.walErrMu.Unlock()
	s.failed.Store(true)
}

// walCommit gates an ingest acknowledgement on durability in strict mode.
func (s *Server) walCommit() error {
	if s.wal == nil || !s.cfg.Strict || !s.walOn.Load() {
		return nil
	}
	if err := s.wal.Commit(); err != nil {
		s.walFail(err)
		return fmt.Errorf("serve: WAL commit: %w", err)
	}
	return nil
}

// applyDeparture validates one departure and buffers it for the scheduler,
// which flushes the buffer into the feed ahead of every checkpoint.
func (s *Server) applyDeparture(d dist.Departure) {
	s.invMu.Lock()
	s.miscReceived++
	s.invMu.Unlock()
	w := s.cluster.World
	n := len(w.Sites)
	if int(d.Object) < 0 || int(d.Object) >= w.NumTags() ||
		w.Sites[0].Tags[d.Object].Kind != model.KindItem {
		s.rejectf("departure of non-item tag %d", d.Object)
		return
	}
	if d.From < 0 || d.From >= n || d.To < 0 || d.To >= n || d.From == d.To {
		s.rejectf("departure %d->%d invalid for %d sites", d.From, d.To, n)
		return
	}
	if bound, kind := s.epochBound(); d.At >= bound || d.At < 0 {
		s.rejectf("departure at epoch %d beyond %s %d", d.At, kind, bound)
		return
	}
	s.depMu.Lock()
	s.deps = append(s.deps, d)
	// Logged under depMu for the same reason readings log under the
	// stripe lock: the snapshot copies this buffer and rotates the
	// departure segment in one critical section.
	if s.walOn.Load() {
		if err := s.wal.AppendDeparture(d); err != nil {
			s.walFail(err)
		}
	}
	s.depMu.Unlock()
	if s.owner != nil {
		// A broadcast departure is also a stream-time signal in clustered
		// mode: a peer whose own sites go quiet must still advance to the
		// departure's checkpoint, where it receives (or sends) the
		// migration payload. Producers therefore must keep departures in
		// global time order with the readings they broadcast, or set a
		// Watermark covering their skew — the same contract readings
		// already carry.
		s.publishTime(d.At)
	}
}

// rejectf counts one validation rejection.
func (s *Server) rejectf(format string, args ...any) {
	s.invMu.Lock()
	s.invalid++
	s.lastInv = fmt.Sprintf(format, args...)
	s.invMu.Unlock()
}

// rejectMisc counts n rejected events that were never routed to a stripe
// (unroutable site, unknown type), so Received still accounts for them.
func (s *Server) rejectMisc(n int, format string, args ...any) {
	s.invMu.Lock()
	s.invalid += n
	s.miscReceived += n
	s.lastInv = fmt.Sprintf(format, args...)
	s.invMu.Unlock()
}

// storeMax raises a to v unless it already holds as much.
func storeMax(a *atomic.Int64, v int64) {
	for cur := a.Load(); v > cur && !a.CompareAndSwap(cur, v); cur = a.Load() {
	}
}

// publishTime folds an epoch into global stream time and wakes the
// scheduler when a checkpoint became due. An edge publishes its call's
// highest accepted epoch once, after every run is bucketed, so the
// scheduler can never seal an interval ahead of readings of the same call.
func (s *Server) publishTime(t model.Epoch) {
	if t < 0 {
		return
	}
	storeMax(&s.maxT, int64(t))
	if s.checkpointDue() {
		select {
		case s.notify <- struct{}{}:
		default:
		}
	}
}

// checkpointDue reports whether published stream time has crossed the next
// checkpoint's watermark.
func (s *Server) checkpointDue() bool {
	return s.maxT.Load() >= s.dueAt.Load()
}
