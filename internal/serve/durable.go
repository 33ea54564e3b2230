// The durable-state wiring: WAL-backed recovery and snapshotting around
// the sharded ingest runtime.
//
// Correctness argument, in three parts. (1) Every accepted event is
// durable before it can matter: readings append to their site's WAL
// segment inside the same stripe critical section that buckets them,
// departures inside the same depMu section that buffers them. (2) A
// snapshot at a checkpoint boundary captures the complete semantic state —
// engine state is exact by rfinfer.EngineState, cluster state by
// dist.FeedState, and buffered-but-unobserved events ride inside the
// snapshot, which is what lets older WAL generations retire. (3) Recovery
// re-ingests the WAL tail through the normal ingest path — each logged run
// is handed to ingestRun exactly as a frame section is, a view over the
// segment's bytes in place of the request's — with checkpoints suppressed,
// then lets the scheduler catch up; every checkpoint therefore observes
// exactly the event set it observed (or would have observed) in the
// uninterrupted run, so by the runtime's replay-determinism contract the
// recovered Result and alert log are bit-identical.
// TestRecoverMatchesUninterrupted pins this end to end.
package serve

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"rfidtrack/internal/dist"
	"rfidtrack/internal/model"
	"rfidtrack/internal/rfinfer"
	"rfidtrack/internal/stream"
	"rfidtrack/internal/wal"
)

// recover opens the data directory, restores the manifest's snapshot (if
// any), replays the WAL tail, and arms live appending. Called from New
// before the scheduler starts; the replay is the only producer, and with
// the due-clock parked no checkpoint can run (and no backpressure engage)
// until the scheduler catches up afterwards.
func (s *Server) recover() error {
	l, err := wal.Open(s.cfg.DataDir, len(s.shards), wal.Options{SyncEvery: s.cfg.SyncEvery})
	if err != nil {
		return err
	}
	s.wal = l
	st, ok, err := l.LoadState()
	if err != nil {
		return err
	}
	if ok {
		if err := s.restoreState(st); err != nil {
			return err
		}
	}

	// Park the due clock so replayed stream time cannot trigger
	// checkpoints or backpressure mid-replay; the epoch bound is relaxed
	// the same way (see epochBound) because the log holds only events
	// this deployment already accepted.
	savedDue := s.dueAt.Load()
	s.dueAt.Store(math.MaxInt64)
	s.replaying.Store(true)
	// The log's reading runs go down the one ingest path as they are read,
	// views over the read buffer; with checkpoints suppressed, their order
	// against the departures cannot matter. Distinct sites' runs arrive
	// concurrently, each on its own stripe under its lock, so every site
	// keeps its own highest epoch, merged once the replay is done.
	siteMax := make([]atomic.Int64, len(s.shards))
	for i := range siteMax {
		siteMax[i].Store(-1)
	}
	replayErr := l.ReplayRuns(func(site int, run []dist.Reading) error {
		t, err := s.ingestRun(site, run)
		if err != nil {
			s.rejectMisc(len(run), "logged readings refused: %v", err)
			return nil
		}
		// Atomic because a record may name another site than its segment.
		storeMax(&siteMax[site], int64(t))
		return nil
	}, func(rec stream.WALRecord) error {
		switch rec.Kind {
		case stream.WALDepart:
			s.applyDeparture(dist.Departure{Object: rec.Object, From: rec.From, To: rec.To, At: rec.At})
		case stream.WALMigration:
			// An inbound peer payload that was ACKed before the crash:
			// re-deposit it for the caught-up checkpoint, unless the
			// restored boundary shows that checkpoint already completed
			// (then the record is a duplicate a pre-snapshot checkpoint
			// consumed; the segment sorts first, so the boundary is final).
			if s.peers != nil {
				d := dist.Departure{Object: rec.Object, From: rec.From, To: rec.To, At: rec.At}
				if model.Epoch(s.nextCkpt.Load()) <= migCkpt(d.At, s.cfg.Interval) {
					if _, err := s.peers.deposit(d, rec.Payload, nil); err != nil {
						return err
					}
				}
			}
		case stream.WALAlert:
			// A post-snapshot alert that was published before the crash: its
			// segment sorts first in the replay, so these land right after
			// the snapshot's restored prefix with their pre-crash sequence
			// numbers. The publish cursor is NOT advanced — the catch-up
			// checkpoints re-fire exactly these matches and publish dedups
			// them against the restored entries by position, which is what
			// keeps resumed consumer cursors naming the same alerts.
			s.alerts.restoreTail(Alert{
				Site:    rec.Site,
				Tag:     rec.Tag,
				First:   rec.T,
				Last:    rec.At,
				Values:  rec.Values,
				Pattern: rec.Pattern,
			})
		}
		return nil
	})
	replayMax := model.Epoch(-1)
	for i := range siteMax {
		replayMax = max(replayMax, model.Epoch(siteMax[i].Load()))
	}
	s.publishTime(replayMax)
	s.replaying.Store(false)
	s.dueAt.Store(savedDue)
	if replayErr != nil {
		return fmt.Errorf("serve: WAL replay: %w", replayErr)
	}
	if err := l.StartAppending(); err != nil {
		return err
	}
	s.walOn.Store(true)
	return nil
}

// restoreState installs a snapshot: cluster and engine state, query
// partitions and match history, the alert log, ingest counters, and the
// buffered events the snapshot carried out of the retired WAL
// generations.
func (s *Server) restoreState(st *wal.State) error {
	if len(st.Engines) != len(s.cluster.Engines) {
		return fmt.Errorf("serve: snapshot has %d site engines, deployment has %d",
			len(st.Engines), len(s.cluster.Engines))
	}
	if (st.Queries != nil) != (s.cluster.Query != nil) {
		return fmt.Errorf("serve: snapshot and deployment disagree on query attachment")
	}
	if st.Queries != nil && len(st.Queries) != len(s.cluster.Engines) {
		return fmt.Errorf("serve: snapshot has %d site query states, deployment has %d",
			len(st.Queries), len(s.cluster.Engines))
	}
	if len(st.Buffered) > len(s.shards) || len(st.Shards) > len(s.shards) {
		return fmt.Errorf("serve: snapshot covers more sites than the deployment")
	}
	if err := s.feed.ImportState(st.Feed); err != nil {
		return err
	}
	for i, eng := range s.cluster.Engines {
		if err := eng.ImportState(st.Engines[i]); err != nil {
			return fmt.Errorf("serve: site %d engine state: %w", i, err)
		}
	}
	for i := range st.Queries {
		q := s.cluster.SiteQuery(i)
		if q == nil {
			return fmt.Errorf("serve: site %d has no query engine to restore into", i)
		}
		for _, part := range st.Queries[i].Parts {
			q.ImportState(part.Tag, part.State)
		}
		q.ImportMatches(st.Queries[i].Matches)
	}

	s.alerts.restore(st.Alerts)

	sealTo := st.Boundary - s.cfg.Interval
	for i, sh := range s.shards {
		if sealTo > 0 {
			sh.seal(sealTo, s.cfg.Interval)
		}
		if i < len(st.Shards) {
			sh.restoreCounters(st.Shards[i].Received, st.Shards[i].Late)
		}
		if i < len(st.Buffered) {
			sh.inject(st.Buffered[i], s.cfg.Interval)
		}
	}
	s.depMu.Lock()
	s.deps = append(s.deps, st.PendingDeps...)
	s.depMu.Unlock()
	if s.peers != nil {
		for _, m := range st.PendingMigs {
			if _, err := s.peers.deposit(m.D, m.Payload, nil); err != nil {
				return err
			}
		}
	} else if len(st.PendingMigs) > 0 {
		return fmt.Errorf("serve: snapshot carries %d pending peer migrations but the daemon is not clustered", len(st.PendingMigs))
	}
	s.invMu.Lock()
	s.invalid = st.Invalid
	s.miscReceived = st.Misc
	s.invMu.Unlock()

	s.maxT.Store(int64(st.StreamTime))
	s.nextCkpt.Store(int64(st.Boundary))
	s.dueAt.Store(int64(st.Boundary + s.cfg.Watermark))
	return nil
}

// snapshotLocked commits a full-state snapshot at the current checkpoint
// boundary: rotate every segment (each under the lock its appenders take,
// so the cut and the captured buffers are one instant), assemble the
// state, write it durably, and retire the old generations. Caller holds
// s.mu, so no checkpoint is in flight and the feed, engines and query
// engines are quiescent.
func (s *Server) snapshotLocked() error {
	gen := s.wal.NextGen()
	st := &wal.State{
		Boundary:   s.feed.Next(),
		StreamTime: model.Epoch(s.maxT.Load()),
		Buffered:   make([][]dist.Reading, len(s.shards)),
		Shards:     make([]wal.ShardCounters, len(s.shards)),
	}
	for i, sh := range s.shards {
		sh.mu.Lock()
		st.Buffered[i] = sh.exportBufferedLocked()
		st.Shards[i] = wal.ShardCounters{Received: sh.received, Late: sh.late}
		err := s.wal.Rotate(i, gen)
		sh.mu.Unlock()
		if err != nil {
			return err
		}
	}
	s.depMu.Lock()
	pend := append([]dist.Departure(nil), s.deps...)
	err := s.wal.Rotate(wal.Departures, gen)
	s.depMu.Unlock()
	if err != nil {
		return err
	}
	st.PendingDeps = append(s.feed.PendingDepartures(), pend...)
	if s.peers != nil {
		// The unconsumed peer inbox rides in the snapshot; rotating the
		// migration segment in the same critical section as the export
		// (see peerSet.deposit) keeps the two a consistent cut.
		migs, merr := s.peers.exportAndRotate(s.wal, gen)
		if merr != nil {
			return merr
		}
		st.PendingMigs = migs
	} else if err := s.wal.Rotate(wal.Migrations, gen); err != nil {
		// The migration segment exists even un-clustered; an unrotated
		// segment would keep appending into a retired generation.
		return err
	}
	// Alerts published before this cut ride in st.Alerts below; the caller
	// holds s.mu and publishes run under it, so the rotation and the
	// export see the same log.
	if err := s.wal.Rotate(wal.Alerts, gen); err != nil {
		return err
	}

	st.Feed = s.feed.ExportState()
	st.Engines = make([]rfinfer.EngineState, len(s.cluster.Engines))
	for i, eng := range s.cluster.Engines {
		st.Engines[i] = eng.ExportState()
	}
	if s.cluster.Query != nil {
		st.Queries = make([]wal.QueryState, len(s.cluster.Engines))
		for i := range st.Queries {
			q := s.cluster.SiteQuery(i)
			pat := q.Pattern()
			var qs wal.QueryState
			for _, tag := range pat.Partitions() {
				if ps := pat.State(tag); ps != nil {
					cp := *ps
					cp.Values = append([]float64(nil), ps.Values...)
					qs.Parts = append(qs.Parts, wal.QueryPartition{Tag: tag, State: cp})
				}
			}
			qs.Matches = append(qs.Matches, q.Matches()...)
			st.Queries[i] = qs
		}
	}
	st.Alerts = s.alerts.export()
	s.invMu.Lock()
	st.Invalid = s.invalid
	st.Misc = s.miscReceived
	s.invMu.Unlock()

	if err := s.wal.Snapshot(st, gen); err != nil {
		return err
	}
	s.sinceSnap = 0
	return nil
}

// SnapshotNow forces a durable snapshot at the current checkpoint
// boundary (the POST /snapshot trigger), returning the committed
// manifest. It fails when DataDir is unset or the pipeline has latched an
// error.
func (s *Server) SnapshotNow() (wal.Manifest, error) {
	if s.wal == nil {
		return wal.Manifest{}, errors.New("serve: durability disabled (no DataDir configured)")
	}
	if err := s.beginIngest(); err != nil {
		return wal.Manifest{}, err
	}
	defer s.ingestWG.Done()

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.runErr != nil {
		return wal.Manifest{}, s.runErr
	}
	if err := s.snapshotLocked(); err != nil {
		s.walFail(err)
		return wal.Manifest{}, err
	}
	return s.wal.Manifest(), nil
}
