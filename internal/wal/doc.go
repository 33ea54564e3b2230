// Package wal is the durable-state subsystem of the online runtime: a
// per-site write-ahead log of accepted events plus full-state snapshots,
// managed together in one data directory so a crashed rfidtrackd restarts
// into exactly the state it held.
//
// # Layout
//
// A data directory contains:
//
//	MANIFEST              the commit point: current segment generation,
//	                      active snapshot file, snapshot boundary epoch
//	DEPLOYMENT            the deployment record: what the log's readings
//	                      mean (Deployment), written by the daemon's first
//	                      start once it has passed its checks and checked
//	                      by every later one
//	site-<s>.<gen>.wal    per-site reading segments (stream.WALRecord frames)
//	departures.<gen>.wal  the departure segment
//	migrations.<gen>.wal  inbound peer migration payloads
//	alerts.<gen>.wal      published alerts, the alert log's tail
//	snap-<gen>.snap       the full-state snapshot (State, CRC-protected)
//	                      the manifest of generation <gen> commits
//	FENCE                 the fencing epoch a promoted standby writes
//
// A segment is addressed by an id: a site's number, or one of the shared
// segments' ids Departures, Migrations and Alerts (-1, -2, -3). The Log
// keeps one table of them, and opens, rotates, commits and closes them all
// the same way. <gen> is written as six digits or more, and only a name the
// log writes (segmentName) is a segment: any other file — a copy, a
// zero-padded site — is never replayed, shipped or retired.
//
// Accepted readings append to their site's segment a run at a time — one
// record per run an ingest call bucketed, its payload the run's 16-byte wire
// records as the RFB1 frame carried them (stream.WALRun) — under the ingest
// stripe's lock, so the log order is the bucket order; departures,
// migration payloads and alerts append to their shared segments. AppendReadings writes a run as one header,
// one CRC and one copy of the caller's bytes; it does no per-reading work.
// Appends are buffered; a group fsync makes them durable either on a timer
// (Options.SyncEvery) or by a Commit the caller makes before an ingest
// acknowledgement (the serve layer's strict mode).
//
// A directory holds reading runs and version-4 snapshots only: replay
// refuses a per-reading record (stream.WALReading) of an earlier release and
// LoadState an older snapshot, naming the file, what it found and the way out.
//
// # Snapshots and retirement
//
// A snapshot captures the complete semantic state at a Δ-checkpoint
// boundary: per-site inference state (rfinfer.EngineState), cluster
// runtime state (dist.FeedState), query pattern partitions and matches,
// the alert log, and every buffered-but-unobserved event. Its payload is
// written with model.Writer and read with model.Reader, the codec the
// migration payloads use; the engine and query sections are
// rfinfer.AppendEngineState and stream.AppendState appended to the same
// slice.
// Because buffered events are inside the snapshot, all segments of older
// generations are garbage the moment the MANIFEST commits the new snapshot
// — writing a snapshot rotates every segment to a new generation, then
// retires the old files. Disk usage is therefore bounded by one snapshot
// plus the WAL written since.
//
// A snapshot is named by the generation whose manifest commits it, never
// by its boundary: two snapshots at one boundary (a forced one before the
// next checkpoint) are two generations and two names, so a name always
// means one sequence of bytes. Log.Snapshot writes snap-<gen>.snap in
// place, fsyncs it and the directory, and only then commits the manifest;
// it refuses a generation not above the manifest's, so the committed
// snapshot is never overwritten, and a file cut short by a crash is named
// by no manifest and retired by the next commit. Shipping (ship.go) relies
// on the same rule: a snapshot ships to a standby exactly as a segment
// does, as its tail from the size the follower holds.
//
// # Recovery
//
// Recovery is LoadState, which decodes the MANIFEST's snapshot (if any),
// then ReplayRuns over the segments of the current generation (and of any
// later one a crash left uncommitted); the serve layer restores the
// snapshot into its engines in between. A segment's torn tail — a frame cut short by
// the crash — is detected by the CRC framing and truncated at the last
// valid record; corruption in the middle of a segment stops replay with
// the same clean truncation (see stream.DecodeWALRecord); a torn run record
// costs that run, never a byte synced before it. A segment streams through
// one reused read buffer per worker, never read whole; the truncation
// offset is the one stream.ScanWAL finds over the whole file. ReplayRuns
// hands each run on as a []dist.Reading view over the buffered bytes — no
// decode, no copy — and the caller (internal/serve) re-ingests it through
// its normal ingest path exactly as it would a frame section, which
// together with the exactness of the state codecs makes a recovered run
// bit-identical to one that never crashed.
//
// ReplayRuns walks the alert, migration and departure segments first, one
// after another, and emit receives their records on the calling goroutine,
// in that order. Then the sites replay at once, one task per site on an
// internal/workpool pool, each walking its own segments generation by
// generation: run is called concurrently for distinct sites and in log
// order within a site, so a stripe's buckets come back in exactly its
// logged order; emit is never called concurrently. Replay is the same walk
// serialized — every segment in turn on the calling goroutine — with every
// run expanded into one record per reading.
package wal
