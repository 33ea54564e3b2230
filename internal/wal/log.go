package wal

import (
	"bufio"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"rfidtrack/internal/dist"
	"rfidtrack/internal/model"
	"rfidtrack/internal/stream"
	"rfidtrack/internal/workpool"
)

// manifestName is the commit-point file inside a data directory.
const manifestName = "MANIFEST"

// manifestVersion is the on-disk MANIFEST format version.
const manifestVersion = 1

// Manifest is the data directory's commit point, written atomically
// (tmp + rename) so a crash can never leave it half-updated. The segment
// generation and the snapshot commit together: recovery reads the
// snapshot named here and replays only segments of generation Gen.
type Manifest struct {
	// Version is the on-disk format version.
	Version int `json:"version"`
	// Gen is the current segment generation; older generations are
	// garbage (their events live inside the snapshot) pending deletion.
	Gen int `json:"gen"`
	// Snapshot is the active snapshot file name ("" before the first).
	Snapshot string `json:"snapshot"`
	// Boundary is the snapshot's checkpoint boundary epoch.
	Boundary model.Epoch `json:"boundary"`
}

// Options tunes a Log. The zero value is a usable default: group fsync
// every 100ms, acknowledgements not gated on durability.
type Options struct {
	// SyncEvery is the group-fsync cadence of the background syncer
	// (default 100ms; <0 disables the timer entirely).
	SyncEvery time.Duration
	// Strict gates every ingest acknowledgement on an fsync: Commit must
	// be called (and waited for) before acking, so an acknowledged event
	// can never be lost to a crash. Throughput amortizes through group
	// commit; see OPERATIONS.md for the tuning trade-off.
	Strict bool
}

// withDefaults fills unset options.
func (o Options) withDefaults() Options {
	if o.SyncEvery == 0 {
		o.SyncEvery = 100 * time.Millisecond
	}
	return o
}

// Stats counts the log's durability work.
type Stats struct {
	// Appended is the number of events appended (a reading run counts its
	// readings); AppendedBytes their framed size on disk.
	Appended      int   `json:"appended"`
	AppendedBytes int64 `json:"appended_bytes"`
	// Syncs counts group fsyncs; Snapshots completed snapshot commits.
	Syncs     int `json:"syncs"`
	Snapshots int `json:"snapshots"`
	// LastSnapshot is the boundary epoch of the most recent snapshot
	// (-1 before the first).
	LastSnapshot model.Epoch `json:"last_snapshot"`
	// Replayed counts events re-ingested during recovery, like Appended;
	// Truncated the segments whose torn or corrupt tails were cut back.
	Replayed  int `json:"replayed"`
	Truncated int `json:"truncated"`
	// LoadStateMS is the wall time LoadState spent reading and decoding
	// the snapshot, ReplayMS the time ReplayRuns spent walking the
	// segments, handing on their records included: a restart's two
	// durable-state stages, in milliseconds (0 until they run).
	LoadStateMS float64 `json:"load_state_ms"`
	ReplayMS    float64 `json:"replay_ms"`
}

// Departures, Migrations and Alerts are the ids of the three shared
// segments. Sites are segments too, with their site number as id, so one id
// space addresses every segment: in its file name (segmentName), in Rotate
// and in a follower's replication cursor (SegPos.Site).
const (
	Departures = -1 // accepted departure events
	Migrations = -2 // inbound peer migration payloads
	Alerts     = -3 // published continuous-query alerts (the delivery tier's durable log)
)

// sharedStems holds the shared segments' file-name stems, id -1 first.
var sharedStems = [...]string{"departures", "migrations", "alerts"}

// segment is one append-only WAL file with a buffered writer. Appends take
// mu; an fsync runs under syncMu alone, so appends never wait on the disk.
// Whatever replaces or closes the file takes syncMu first (then mu), so a
// rotation never closes a file mid-sync.
type segment struct {
	syncMu sync.Mutex // held across an fsync; taken before mu
	mu     sync.Mutex
	f      *os.File
	bw     *bufio.Writer
	buf    []byte      // frame scratch, reused per append
	dirty  atomic.Bool // records buffered since the last successful sync
}

// append frames rec into the segment's buffer.
func (s *segment) append(rec stream.WALRecord) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return 0, errors.New("wal: segment is closed")
	}
	s.buf = stream.AppendWALRecord(s.buf[:0], rec)
	n, err := s.bw.Write(s.buf)
	s.dirty.Store(true)
	return n, err
}

// appendRun writes one reading-run record — its header, then the run's
// record bytes as they are — under a single lock acquisition: no per-reading
// work, and the bytes go from the caller's view into the write buffer (or,
// past its size, straight to the file) in one copy.
func (s *segment) appendRun(site int, raw []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return 0, errors.New("wal: segment is closed")
	}
	hdr := stream.WALRunHeader(site, raw)
	s.dirty.Store(true)
	n, err := s.bw.Write(hdr[:])
	if err != nil {
		return n, err
	}
	m, err := s.bw.Write(raw)
	return n + m, err
}

// sync flushes the buffer under mu, then fsyncs the file with mu released:
// appends made meanwhile land in the buffer and mark the segment dirty
// again. A failed fsync re-marks it dirty, so the next Commit retries.
func (s *segment) sync(fsync func(*os.File) error) error {
	s.syncMu.Lock()
	defer s.syncMu.Unlock()
	s.mu.Lock()
	f := s.f
	if f == nil {
		s.mu.Unlock()
		return nil
	}
	err := s.bw.Flush()
	if err == nil {
		s.dirty.Store(false)
	}
	s.mu.Unlock()
	if err != nil {
		return err
	}
	if err := fsync(f); err != nil {
		s.dirty.Store(true)
		return err
	}
	return nil
}

// swap atomically replaces the segment's file with a freshly opened one,
// returning the old file flushed, synced and closed.
func (s *segment) swap(newFile *os.File, fsync func(*os.File) error) error {
	s.syncMu.Lock()
	defer s.syncMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f != nil {
		if err := s.bw.Flush(); err != nil {
			newFile.Close()
			return err
		}
		if err := fsync(s.f); err != nil {
			newFile.Close()
			return err
		}
		s.f.Close()
	}
	s.f = newFile
	s.bw = bufio.NewWriterSize(newFile, 1<<16)
	s.dirty.Store(false)
	return nil
}

// close flushes, syncs and closes the segment.
func (s *segment) close(fsync func(*os.File) error) error {
	s.syncMu.Lock()
	defer s.syncMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	err := s.bw.Flush()
	if serr := fsync(s.f); err == nil {
		err = serr
	}
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	s.f = nil
	s.bw = nil
	if err == nil {
		s.dirty.Store(false)
	}
	return err
}

// Log manages one data directory: per-site reading segments, the shared
// departure, migration and alert segments, the manifest and the snapshot
// files. Appends are safe for concurrent use (each segment has its own
// lock); Snapshot, Commit and Close may run concurrently with appends.
type Log struct {
	dir  string
	opts Options

	manifestMu sync.Mutex // guards manifest: the ship handler reads it off-thread
	manifest   Manifest
	// segs is the segment table: each site's segment at the site's index,
	// then the shared segments, Departures first (see seg).
	segs  []*segment
	sites int

	statsMu sync.Mutex
	stats   Stats // slow-path counters; Appended/AppendedBytes live below

	// Hot-path counters: every accepted reading crosses the append path,
	// so these are atomics rather than statsMu acquisitions.
	appended      atomic.Int64
	appendedBytes atomic.Int64

	// fsync makes a segment file durable: (*os.File).Sync, replaceable so
	// tests can hold or fail one.
	fsync func(*os.File) error

	appendSeq  atomic.Int64 // bumped after every buffered append
	syncMu     sync.Mutex   // serializes group commits
	syncedSeq  int64        // guarded by syncMu: highest seq a commit covered
	quit       chan struct{}
	syncerDone chan struct{}
	closeOnce  sync.Once
}

// Open opens (creating if needed) a data directory for a deployment with
// the given number of sites. It reads the manifest but does not recover or
// open segments for appending — call LoadState and ReplayRuns (or Replay) to
// recover the snapshot and the tail, then StartAppending to begin logging
// new events. This split lets the caller re-ingest the tail without the
// replayed records being re-appended.
func Open(dir string, sites int, opts Options) (*Log, error) {
	if sites <= 0 {
		return nil, fmt.Errorf("wal: need at least one site, got %d", sites)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	l := &Log{
		dir:   dir,
		opts:  opts.withDefaults(),
		segs:  make([]*segment, sites+len(sharedStems)),
		sites: sites,
		fsync: (*os.File).Sync,
		quit:  make(chan struct{}),
	}
	for i := range l.segs {
		l.segs[i] = &segment{}
	}
	l.stats.LastSnapshot = -1
	m, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	if m == nil {
		l.manifest = Manifest{Version: manifestVersion, Gen: 1}
		if err := l.writeManifest(l.manifest); err != nil {
			return nil, err
		}
	} else {
		if m.Version != manifestVersion {
			return nil, fmt.Errorf("wal: unsupported manifest version %d", m.Version)
		}
		l.manifest = *m
		if m.Snapshot != "" {
			l.stats.LastSnapshot = m.Boundary
		}
	}
	return l, nil
}

// Manifest returns the current commit point.
func (l *Log) Manifest() Manifest {
	l.manifestMu.Lock()
	defer l.manifestMu.Unlock()
	return l.manifest
}

// Dir returns the data directory path.
func (l *Log) Dir() string { return l.dir }

// Stats returns a snapshot of the durability counters.
func (l *Log) Stats() Stats {
	l.statsMu.Lock()
	st := l.stats
	l.statsMu.Unlock()
	st.Appended = int(l.appended.Load())
	st.AppendedBytes = l.appendedBytes.Load()
	return st
}

// readManifest loads the manifest, returning nil when none exists yet.
func readManifest(dir string) (*Manifest, error) {
	b, err := os.ReadFile(filepath.Join(dir, manifestName))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("wal: corrupt manifest: %w", err)
	}
	return &m, nil
}

// writeManifest commits a manifest atomically and publishes it as the
// log's current commit point.
func (l *Log) writeManifest(m Manifest) error {
	if err := commitManifest(l.dir, m); err != nil {
		return err
	}
	l.manifestMu.Lock()
	l.manifest = m
	l.manifestMu.Unlock()
	return nil
}

// commitManifest writes a data directory's manifest atomically. Shared by
// the Log (snapshot commits) and the replication Receiver (shipped manifest
// commits).
func commitManifest(dir string, m Manifest) error {
	b, err := json.Marshal(m)
	if err != nil {
		return err
	}
	return writeFileAtomic(dir, manifestName, b)
}

// writeFileSync writes a file and fsyncs it before closing.
func writeFileSync(path string, b []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// syncDir fsyncs a directory so renames inside it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	// Some filesystems refuse fsync on directories (EINVAL/ENOTSUP);
	// tolerating that loses only the rename's durability window, not
	// correctness of what was synced.
	if err := d.Sync(); err != nil &&
		!errors.Is(err, syscall.EINVAL) && !errors.Is(err, syscall.ENOTSUP) {
		return err
	}
	return nil
}

// seg returns segment id's table entry, nil when the log has none.
func (l *Log) seg(id int) *segment {
	i := id
	if id < 0 {
		i = l.sites - 1 - id
	}
	if id < Alerts || i >= len(l.segs) {
		return nil
	}
	return l.segs[i]
}

// segmentName returns the file name of segment id (a site, Departures,
// Migrations or Alerts; nothing below Alerts) in generation gen.
func segmentName(id, gen int) string {
	if id < 0 {
		return fmt.Sprintf("%s.%06d.wal", sharedStems[-1-id], gen)
	}
	return fmt.Sprintf("site-%d.%06d.wal", id, gen)
}

// parseSegmentName reverses segmentName. Only a name segmentName writes is
// a segment: ok is false for every other file, "site-03.000001.wal" or a
// copy's "site-0.000001 (copy).wal" included, so replay, shipping and
// retirement never touch a file the log did not write.
func parseSegmentName(name string) (id, gen int, ok bool) {
	base, isWAL := strings.CutSuffix(name, ".wal")
	dot := strings.LastIndexByte(base, '.')
	if !isWAL || dot < 0 {
		return 0, 0, false
	}
	gen, err := strconv.Atoi(base[dot+1:])
	if err != nil {
		return 0, 0, false
	}
	stem := base[:dot]
	if n, site := strings.CutPrefix(stem, "site-"); site {
		if id, err = strconv.Atoi(n); err != nil || id < 0 {
			return 0, 0, false
		}
	} else if k := slices.Index(sharedStems[:], stem); k >= 0 {
		id = -1 - k
	} else {
		return 0, 0, false
	}
	return id, gen, segmentName(id, gen) == name
}

// segKey addresses one segment file: its id and generation.
type segKey struct{ id, gen int }

// listSegments lists dir's segments of generation minGen and later, in
// replay order: by id — the alert, migration and departure segments, then
// the sites ascending — and each id by generation.
func listSegments(dir string, minGen int) ([]segKey, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []segKey
	for _, e := range entries {
		if id, gen, ok := parseSegmentName(e.Name()); ok && gen >= minGen {
			segs = append(segs, segKey{id, gen})
		}
	}
	slices.SortFunc(segs, func(a, b segKey) int {
		return cmp.Or(cmp.Compare(a.id, b.id), cmp.Compare(a.gen, b.gen))
	})
	return segs, nil
}

// scanChunk bounds a replay scanner's read size: a segment streams
// through a buffer of its own size or of this many bytes, whichever is
// less. It holds two of the largest reading runs
// (stream.MaxWALRunReadings × 16 B), so a run rarely straddles a refill,
// and no more: a replay's scanners are garbage once the log is open.
const scanChunk = 2 << 20

// scanner replays segment files through one reused read buffer, sized by
// the largest segment it has read up to scanChunk, and past that only for
// a record larger than itself (a migration payload of up to
// stream.MaxMigrationPayload).
type scanner struct{ buf []byte }

// upgradeHint is the way out of a refused directory, written by a release
// whose log or snapshot format this one no longer reads.
const upgradeHint = "start the previous release over the directory and stop it with SIGTERM " +
	"(its final snapshot, version 4, retires the log), or start with a fresh -data-dir"

// replay walks one segment as ReplayRuns describes, truncating a torn or
// corrupt tail at the offset stream.ScanWAL reports over the whole file.
func (l *Log) replay(sc *scanner, sg segKey, run func(site int, rs []dist.Reading) error, emit func(stream.WALRecord) error) error {
	name := segmentName(sg.id, sg.gen)
	path := filepath.Join(l.dir, name)
	count := 0
	valid, scanErr := sc.scan(path, func(rec stream.WALRecord) error {
		switch rec.Kind {
		case stream.WALRun:
			rs := dist.ReadingsFromWire(rec.Run)
			count += len(rs)
			return run(rec.Site, rs)
		case stream.WALReading:
			return fmt.Errorf("wal: %s holds per-reading records (kind %d), and this release reads reading runs (kind %d) only: %s",
				name, stream.WALReading, stream.WALRun, upgradeHint)
		}
		count++
		return emit(rec)
	})
	l.statsMu.Lock()
	l.stats.Replayed += count
	l.statsMu.Unlock()
	if scanErr == nil {
		return nil
	}
	if !errors.Is(scanErr, stream.ErrFramePartial) && !errors.Is(scanErr, stream.ErrFrameCorrupt) {
		return scanErr // a callback or the file failed
	}
	// Torn or rotted tail: cut the segment back to its last valid record so
	// the next generation of appends (or a re-replay) starts from a clean
	// boundary.
	if err := os.Truncate(path, valid); err != nil {
		return fmt.Errorf("wal: truncating %s at %d: %w", name, valid, err)
	}
	l.statsMu.Lock()
	l.stats.Truncated++
	l.statsMu.Unlock()
	return nil
}

// scan is stream.ScanWAL over a file read a buffer at a time: it calls
// emit for each valid record and returns the offset of the first invalid
// frame plus the frame error that stopped the scan (nil at a clean end),
// exactly as ScanWAL does over the whole file; emit's error, or a read
// error, is returned as is.
func (sc *scanner) scan(path string, emit func(stream.WALRecord) error) (valid int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return 0, err
	}
	// At least 4 KiB, so that a read into an empty or tiny segment's
	// buffer always has room for a frame header.
	if want := int(min(max(fi.Size(), 4<<10), scanChunk)); len(sc.buf) < want {
		sc.buf = make([]byte, want)
	}
	var base int64 // file offset of buf[0]
	lo, hi := 0, 0 // the unread bytes are buf[lo:hi]
	eof := false
	for {
		if lo < hi {
			rec, n, derr := stream.DecodeWALRecord(sc.buf[lo:hi])
			if derr == nil {
				if err := emit(rec); err != nil {
					return base + int64(lo), err
				}
				lo += n
				continue
			}
			if eof || !errors.Is(derr, stream.ErrFramePartial) {
				return base + int64(lo), derr
			}
		} else if eof {
			return base + int64(lo), nil
		}
		// The record at lo is cut short by the buffer's end: move it to the
		// front, make room for the whole of it, and read on.
		need := len(sc.buf)
		if n, ok := stream.WALFrameLen(sc.buf[lo:hi]); ok {
			need = max(need, n)
		}
		base += int64(lo)
		if need > len(sc.buf) {
			sc.buf = append(make([]byte, 0, need), sc.buf[lo:hi]...)[:need]
		} else {
			copy(sc.buf, sc.buf[lo:hi])
		}
		hi -= lo
		lo = 0
		n, rerr := io.ReadFull(f, sc.buf[hi:])
		hi += n
		if rerr == io.EOF || rerr == io.ErrUnexpectedEOF {
			eof = true
		} else if rerr != nil {
			return base, rerr
		}
	}
}

// ReplayRuns walks the segments of the manifest's generation — and of any
// later one, which exists only when a crash landed between a snapshot's
// segment rotation and its manifest commit: records accepted into the new
// generation during that window live nowhere else, so skipping them would
// lose acknowledged events — in listSegments' order. Each valid reading
// run goes to run as a view over the read buffer (dist.ReadingsFromWire),
// valid only during the call. Every other record goes to emit. A torn or
// corrupt tail is truncated on disk at the last valid record, so appending
// can safely resume on the same file. A segment holding a per-reading
// record (stream.WALReading) of an earlier release is refused with an
// error that names it and the way out, and nothing on disk changes.
//
// The alert, migration and departure segments replay first, in that order,
// on the calling goroutine. Then every site's segments replay as one task
// on a worker pool of up to GOMAXPROCS workers, generation by generation:
// run is called concurrently for distinct sites, never twice at once for
// one site, and each site's runs arrive in that site's log order. emit is
// never called concurrently. A replay consumer must not depend on
// cross-segment record order beyond that (the serve layer re-buckets by
// epoch anyway, and restores the alert tail and the peer inbox before
// re-ingesting readings). The first error in site order is returned.
func (l *Log) ReplayRuns(run func(site int, rs []dist.Reading) error, emit func(stream.WALRecord) error) error {
	start := time.Now()
	defer func() {
		l.statsMu.Lock()
		l.stats.ReplayMS = msSince(start)
		l.statsMu.Unlock()
	}()
	segs, err := listSegments(l.dir, l.manifest.Gen)
	if err != nil {
		return err
	}
	sc := &scanner{}
	for len(segs) > 0 && segs[0].id < 0 {
		if err := l.replay(sc, segs[0], run, emit); err != nil {
			return err
		}
		segs = segs[1:]
	}
	var sites [][]segKey // segs is sorted by id: cut it into one task per site
	for i := 0; i < len(segs); {
		j := i + 1
		for j < len(segs) && segs[j].id == segs[i].id {
			j++
		}
		sites = append(sites, segs[i:j])
		i = j
	}
	if len(sites) == 0 {
		return nil
	}
	var mu sync.Mutex // guards free and serializes emit
	free := []*scanner{sc}
	serialEmit := func(rec stream.WALRecord) error {
		mu.Lock()
		defer mu.Unlock()
		return emit(rec)
	}
	errs := make([]error, len(sites))
	pool := workpool.New(min(len(sites), runtime.GOMAXPROCS(0)))
	defer pool.Close()
	pool.For(len(sites), 1, func(lo, hi int) {
		mu.Lock()
		sc := &scanner{}
		if n := len(free); n > 0 {
			sc, free = free[n-1], free[:n-1]
		}
		mu.Unlock()
		for k := lo; k < hi; k++ {
			for _, sg := range sites[k] {
				if errs[k] = l.replay(sc, sg, run, serialEmit); errs[k] != nil {
					break
				}
			}
		}
		mu.Lock()
		free = append(free, sc)
		mu.Unlock()
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Replay walks the same segments as ReplayRuns, one after another on the
// calling goroutine, with every reading run expanded into one WALReading
// record per reading: one emit call per logged event, in listSegments'
// order and each segment's log order.
func (l *Log) Replay(emit func(stream.WALRecord) error) error {
	segs, err := listSegments(l.dir, l.manifest.Gen)
	if err != nil {
		return err
	}
	expand := func(site int, rs []dist.Reading) error {
		for _, r := range rs {
			if err := emit(stream.WALRecord{Kind: stream.WALReading, Site: site, T: r.T, Tag: r.ID, Mask: r.Mask}); err != nil {
				return err
			}
		}
		return nil
	}
	sc := &scanner{}
	for _, sg := range segs {
		if err := l.replay(sc, sg, expand, emit); err != nil {
			return err
		}
	}
	return nil
}

// msSince returns the milliseconds elapsed since t.
func msSince(t time.Time) float64 {
	return float64(time.Since(t).Microseconds()) / 1e3
}

// StartAppending opens every segment's file of the current generation for
// appending (creating it if missing) and starts the group-fsync timer. Call
// it after recovery (LoadState and ReplayRuns); records appended from here
// on extend the same generation the manifest names.
func (l *Log) StartAppending() error {
	for i := range l.segs {
		id := i
		if i >= l.sites {
			id = l.sites - 1 - i // the inverse of seg's index
		}
		if err := l.Rotate(id, l.manifest.Gen); err != nil {
			return err
		}
	}
	if l.opts.SyncEvery > 0 {
		l.syncerDone = make(chan struct{})
		go l.syncer()
	}
	return nil
}

// syncer is the background group-fsync loop.
func (l *Log) syncer() {
	defer close(l.syncerDone)
	t := time.NewTicker(l.opts.SyncEvery)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			_ = l.Commit()
		case <-l.quit:
			return
		}
	}
}

// AppendReadings logs a run of accepted readings for one site as one run
// record (several when the run exceeds stream.MaxWALRunReadings). The serve
// layer calls it inside the stripe critical section that buckets the run, so
// the log order remains the bucket order and snapshot rotation still cleanly
// partitions the records. batch is not retained.
func (l *Log) AppendReadings(site int, batch []dist.Reading) error {
	if site < 0 || site >= l.sites {
		return fmt.Errorf("wal: site %d out of range [0,%d)", site, l.sites)
	}
	for len(batch) > 0 {
		k := min(len(batch), stream.MaxWALRunReadings)
		n, err := l.segs[site].appendRun(site, dist.ReadingsToWire(batch[:k]))
		if err != nil {
			return err
		}
		l.appendSeq.Add(int64(k))
		l.appended.Add(int64(k))
		l.appendedBytes.Add(int64(n))
		batch = batch[k:]
	}
	return nil
}

// appendRecord logs one record to shared segment id and counts it.
func (l *Log) appendRecord(id int, rec stream.WALRecord) error {
	n, err := l.seg(id).append(rec)
	if err != nil {
		return err
	}
	l.appendSeq.Add(1)
	l.appended.Add(1)
	l.appendedBytes.Add(int64(n))
	return nil
}

// AppendDeparture logs one accepted departure event.
func (l *Log) AppendDeparture(d dist.Departure) error {
	return l.appendRecord(Departures, stream.WALRecord{
		Kind: stream.WALDepart, Object: d.Object, From: d.From, To: d.To, At: d.At,
	})
}

// AppendMigration logs one inbound migration payload accepted from a peer,
// keyed by its departure identity. The serve layer commits (fsyncs) before
// acknowledging the peer's POST — the sender stops re-sending once acked,
// so the payload must already be durable at that point.
func (l *Log) AppendMigration(d dist.Departure, payload []byte) error {
	return l.appendRecord(Migrations, stream.WALRecord{
		Kind: stream.WALMigration, Object: d.Object, From: d.From, To: d.To, At: d.At,
		Payload: payload,
	})
}

// AppendAlert logs one published alert to the alert segment. The serve
// layer's publish path appends in sequence order under its scheduler lock,
// so the segment's record order IS the alert log's sequence order — the
// invariant that lets recovery reassign Seq by position when replaying the
// post-snapshot tail.
func (l *Log) AppendAlert(a Alert) error {
	return l.appendRecord(Alerts, stream.WALRecord{
		Kind: stream.WALAlert, Site: a.Site, Tag: a.Tag,
		T: a.First, At: a.Last, Pattern: a.Pattern, Values: a.Values,
	})
}

// Strict reports whether acknowledgements must wait for Commit.
func (l *Log) Strict() bool { return l.opts.Strict }

// Commit is the group fsync: flush every dirty segment buffer and fsync
// its file, covering every append that completed before the call. The
// amortization is real, not just serialized: a caller that was queued on
// the commit lock while a covering commit ran returns without issuing
// its own fsync pass, so K concurrent strict-mode acks share O(1) fsync
// rounds instead of performing K. Segments with no appends since their
// last sync are skipped entirely — a burst confined to one site fsyncs
// one file, not one per site, which is what makes strict-mode group
// commit scale with the number of *active* sites.
func (l *Log) Commit() error {
	need := l.appendSeq.Load()
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	if l.syncedSeq >= need {
		return nil // a commit that started after our appends already ran
	}
	covered := l.appendSeq.Load()
	var err error
	for _, sg := range l.segs {
		if !sg.dirty.Load() {
			continue
		}
		if serr := sg.sync(l.fsync); err == nil {
			err = serr
		}
	}
	if err == nil && covered > l.syncedSeq {
		l.syncedSeq = covered
	}
	l.statsMu.Lock()
	l.stats.Syncs++
	l.statsMu.Unlock()
	return err
}

// NextGen returns the generation a snapshot in progress should rotate
// into: one past both the manifest's generation and any segment file on
// disk. Scanning the directory matters after a crash that rotated
// segments but never committed their manifest: those orphaned
// higher-generation files still hold the only durable copy of their
// records (Replay reads them, the next committed snapshot retires them),
// and reusing their names with O_APPEND would splice stale records into
// a fresh generation.
func (l *Log) NextGen() int {
	gen := l.manifest.Gen
	segs, _ := listSegments(l.dir, gen) // on a read error, the manifest's generation alone
	for _, sg := range segs {
		gen = max(gen, sg.gen)
	}
	return gen + 1
}

// Rotate switches segment id — a site, Departures, Migrations or Alerts —
// to generation gen: it opens that generation's file and swaps it in,
// flushing, syncing and closing the old one. A snapshot rotates each
// segment while holding the lock its appenders take — a site's ingest
// stripe lock, the departure-buffer lock, the peer inbox's lock, the
// scheduler lock alerts publish under — so the rotation point cleanly
// partitions the segment's records between the snapshot, which captures
// the same buffer, inbox or alert log at the same instant, and the new
// generation.
func (l *Log) Rotate(id, gen int) error {
	sg := l.seg(id)
	if sg == nil {
		return fmt.Errorf("wal: no segment %d (sites [0,%d) and %d..%d)", id, l.sites, Alerts, Departures)
	}
	f, err := os.OpenFile(filepath.Join(l.dir, segmentName(id, gen)),
		os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	return sg.swap(f, l.fsync)
}

// Snapshot commits a full-state snapshot taken at a checkpoint boundary:
// write the state file durably, commit the manifest naming it together
// with the new segment generation (the caller must have called Rotate
// after assembling st), then retire every older-generation segment and
// older snapshot. After Snapshot returns, the directory holds one snapshot
// plus the segments written since Rotate.
func (l *Log) Snapshot(st *State, gen int) error {
	name := snapshotName(st.Boundary)
	tmp := filepath.Join(l.dir, name+".tmp")
	if err := writeFileSync(tmp, AppendState(nil, st)); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(l.dir, name)); err != nil {
		return err
	}
	if err := syncDir(l.dir); err != nil {
		return err
	}
	if err := l.writeManifest(Manifest{
		Version:  manifestVersion,
		Gen:      gen,
		Snapshot: name,
		Boundary: st.Boundary,
	}); err != nil {
		return err
	}
	retireFiles(l.dir, name, gen)
	l.statsMu.Lock()
	l.stats.Snapshots++
	l.stats.LastSnapshot = st.Boundary
	l.statsMu.Unlock()
	return nil
}

// retireFiles deletes dir's segments of generations before keepGen and its
// snapshots, complete or in flight, other than keepSnap; no other file is
// touched (parseSegmentName, parseSnapshotName). Failures are ignored:
// stale files are re-retired by the next snapshot and never consulted by
// recovery (the manifest is the only source of truth). The Log retires
// after committing a snapshot, the replication Receiver after committing a
// shipped manifest.
func retireFiles(dir, keepSnap string, keepGen int) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		if _, gen, ok := parseSegmentName(name); ok && gen < keepGen {
			os.Remove(filepath.Join(dir, name))
			continue
		}
		if _, tmp, ok := parseSnapshotName(name); ok && (tmp || name != keepSnap) {
			os.Remove(filepath.Join(dir, name))
		}
	}
}

// snapshotName returns the snapshot file name for a checkpoint boundary;
// deriving it from the boundary alone is what lets the replication stream
// address snapshot chunks by boundary instead of by name.
func snapshotName(boundary model.Epoch) string {
	return fmt.Sprintf("snap-%010d.snap", boundary)
}

// parseSnapshotName reverses snapshotName, also matching the in-flight
// ".snap.tmp" form (tmp reports true). Only a name snapshotName writes is
// a snapshot: ok is false for every other file, "snap-300.snap" or a copy's
// "snap-0000000300 (copy).snap" included, so a follower's cursor and
// retirement never count or delete a file the log did not write.
func parseSnapshotName(name string) (boundary model.Epoch, tmp bool, ok bool) {
	name, tmp = strings.CutSuffix(name, ".tmp")
	digits, _ := strings.CutSuffix(strings.TrimPrefix(name, "snap-"), ".snap")
	b, err := strconv.ParseInt(digits, 10, 32)
	if err != nil || snapshotName(model.Epoch(b)) != name {
		return 0, false, false
	}
	return model.Epoch(b), tmp, true
}

// LoadState decodes the manifest's snapshot. ok is false when no snapshot
// has been committed yet (recovery then replays the log from scratch).
func (l *Log) LoadState() (st *State, ok bool, err error) {
	if l.manifest.Snapshot == "" {
		return nil, false, nil
	}
	start := time.Now()
	defer func() {
		l.statsMu.Lock()
		l.stats.LoadStateMS = msSince(start)
		l.statsMu.Unlock()
	}()
	b, err := os.ReadFile(filepath.Join(l.dir, l.manifest.Snapshot))
	if err != nil {
		return nil, false, err
	}
	st, err = DecodeState(b)
	if err != nil {
		return nil, false, fmt.Errorf("wal: snapshot %s: %w", l.manifest.Snapshot, err)
	}
	if st.Boundary != l.manifest.Boundary {
		return nil, false, fmt.Errorf("wal: snapshot boundary %d disagrees with manifest %d",
			st.Boundary, l.manifest.Boundary)
	}
	return st, true, nil
}

// Close stops the syncer and flushes + closes every segment. Safe to call
// more than once.
func (l *Log) Close() error {
	var err error
	l.closeOnce.Do(func() {
		close(l.quit)
		if l.syncerDone != nil {
			<-l.syncerDone
		}
		for _, sg := range l.segs {
			if cerr := sg.close(l.fsync); err == nil {
				err = cerr
			}
		}
	})
	return err
}
