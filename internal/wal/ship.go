// WAL shipping: the replication layer that keeps a warm standby's data
// directory byte-compatible with its primary's. The primary side
// (Log.ShipDelta) is stateless — the follower reports each file it holds
// and the file's size (ShipPos), and the primary answers with RFS1 frames
// covering the gap: the snapshot's tail, then every segment's tail, then
// the manifest commit point, in the same order the recovery path consumes
// them. A snapshot ships exactly as a segment does, because its name,
// snap-<gen>.snap, always means one sequence of bytes. The follower side
// (Receiver) writes every chunk at its offset with one contiguity check
// and commits the manifest only after fsyncing everything before it — so
// at every instant the follower's directory is one a normal recovery
// (`wal.Open`, then `LoadState` and `ReplayRuns`) can recover, which is
// exactly what promotion does.
package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"rfidtrack/internal/model"
	"rfidtrack/internal/stream"
)

// shipChunk is the payload size of one replication chunk frame. Well
// under stream.MaxReplPayload so a single frame never dominates a
// response.
const shipChunk = 256 << 10

// DefaultShipBudget caps the payload bytes of one ShipDelta batch when
// the caller passes no budget: large enough to drain a burst in a few
// round trips, small enough that a catching-up follower cannot buffer an
// unbounded response.
const DefaultShipBudget = 4 << 20

// ShipPos is a follower's replication cursor: its committed manifest's
// generation and the size of every segment and snapshot file it holds.
// The follower derives it from its own directory (Receiver.Pos) and sends
// it with every subscribe poll, which is what makes the primary side
// stateless and a re-subscribe after any interruption safe.
type ShipPos struct {
	// Gen is the follower's committed manifest generation (0 before the
	// first shipped manifest commit). A generation has exactly one
	// manifest, so Gen alone says whether the follower needs the
	// primary's.
	Gen int `json:"gen"`
	// Files maps each segment and snapshot file the follower holds to its
	// size in bytes.
	Files map[string]int64 `json:"files,omitempty"`
}

// ErrShipPos marks a ShipPos that no follower of this log can hold: a
// negative file size, or more of a snapshot than the primary's file has.
var ErrShipPos = errors.New("wal: impossible ship position")

// ShipDelta appends RFS1 frames to dst covering the gap between a
// follower at pos and this log's current durable state, up to roughly
// maxBytes of payload (<= 0 means DefaultShipBudget). It commits (group
// fsyncs) first, so every byte shipped is durable on the primary before
// it can reach the follower.
//
// Every live file ships the same way, as its tail from the follower's
// size, in the order recovery needs them: the manifest's snapshot, then
// every live segment, then — only once every file is complete on the
// follower and the follower's generation differs — the manifest frame
// that commits them. A budget exhausted mid-way or a file retired by a
// concurrent snapshot simply ends the batch early with no manifest frame;
// the follower's next poll resumes from its new pos. The returned batch
// never includes a status frame; the serving layer appends that itself.
func (l *Log) ShipDelta(dst []byte, pos ShipPos, maxBytes int) ([]byte, error) {
	for name, size := range pos.Files {
		if size < 0 {
			return dst, fmt.Errorf("%w: %s at size %d", ErrShipPos, name, size)
		}
	}
	if maxBytes <= 0 {
		maxBytes = DefaultShipBudget
	}
	if err := l.Commit(); err != nil {
		return dst, err
	}
	m := l.Manifest()
	segs, err := listSegments(l.dir, m.Gen)
	if err != nil {
		return dst, err
	}
	files := make([]shipFile, 0, len(segs)+1)
	if m.Snapshot != "" {
		// The follower holds the snapshot under its generation's name
		// even when the manifest names a file an earlier release wrote.
		files = append(files, shipFile{path: m.Snapshot, name: snapshotName(m.Gen), kind: stream.ReplSnapshot, gen: m.Gen})
	}
	for _, sg := range segs {
		name := segmentName(sg.id, sg.gen)
		files = append(files, shipFile{path: name, name: name, kind: stream.ReplSegment, site: sg.id, gen: sg.gen})
	}
	budget := maxBytes
	for _, f := range files {
		off, known := pos.Files[f.name]
		var done bool
		dst, budget, done, err = f.appendTail(dst, l.dir, off, known, budget)
		if errors.Is(err, os.ErrNotExist) {
			return dst, nil // retired by a concurrent snapshot commit; the next poll sees its manifest
		}
		if err != nil || !done {
			return dst, err
		}
	}
	if pos.Gen != m.Gen {
		hasSnap := 0
		if m.Snapshot != "" {
			hasSnap = 1
		}
		dst = stream.AppendReplFrame(dst, stream.ReplManifest, hasSnap, m.Gen, int64(m.Boundary), nil)
	}
	return dst, nil
}

// shipFile is one live file of the primary: its name on the primary, the
// name the follower holds it under, and the address its chunk frames carry.
type shipFile struct {
	path, name      string
	kind, site, gen int
}

// appendTail appends chunk frames for f from the follower's size off
// through the file's current size, within budget, and reports whether the
// follower then holds the whole file. A file the follower has never seen
// ships an empty chunk even at size zero — the follower's directory
// mirrors the primary's file set, not just its bytes. A segment the
// follower holds more of (the primary recovered and truncated a tail the
// follower had shipped) ships a truncate frame instead; a committed
// snapshot never shrinks, so holding more of one is an ErrShipPos.
func (f shipFile) appendTail(dst []byte, dir string, off int64, known bool, budget int) ([]byte, int, bool, error) {
	fh, err := os.Open(filepath.Join(dir, f.path))
	if err != nil {
		return dst, budget, false, err
	}
	defer fh.Close()
	fi, err := fh.Stat()
	if err != nil {
		return dst, budget, false, err
	}
	size := fi.Size()
	if off > size {
		if f.kind != stream.ReplSegment {
			return dst, budget, false, fmt.Errorf("%w: %s at size %d, past the primary's %d", ErrShipPos, f.name, off, size)
		}
		dst = stream.AppendReplFrame(dst, stream.ReplTruncate, f.site, f.gen, size, nil)
		return dst, budget, true, nil
	}
	if size == 0 && !known {
		dst = stream.AppendReplFrame(dst, f.kind, f.site, f.gen, 0, nil)
		return dst, budget, true, nil
	}
	buf := make([]byte, min(shipChunk, max(int(size-off), 1)))
	for off < size && budget > 0 {
		n := min(int64(shipChunk), size-off, int64(budget))
		if _, err := fh.ReadAt(buf[:n], off); err != nil {
			return dst, budget, false, err
		}
		dst = stream.AppendReplFrame(dst, f.kind, f.site, f.gen, off, buf[:n])
		off += n
		budget -= int(n)
	}
	return dst, budget, off == size, nil
}

// Receiver applies a primary's shipped frames to a follower data
// directory, keeping it recoverable at every instant: every chunk, segment
// or snapshot, is written at its offset under the file's final name and
// contiguity-checked, duplicates are skipped (re-application after a torn
// connection is idempotent), and the manifest is committed only after an
// fsync pass over everything shipped before it. Not safe for concurrent
// use; the standby runs one ship loop.
type Receiver struct {
	dir      string
	manifest Manifest
	files    map[string]*os.File // open handles by file name
	shipped  int64
}

// OpenReceiver opens (creating if needed) a follower data directory. A
// directory without a committed manifest reports generation 0, which
// makes the primary ship everything.
func OpenReceiver(dir string) (*Receiver, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	m, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	r := &Receiver{dir: dir, files: make(map[string]*os.File)}
	if m != nil {
		if m.Version != manifestVersion {
			return nil, fmt.Errorf("wal: unsupported manifest version %d", m.Version)
		}
		r.manifest = *m
	} else {
		r.manifest = Manifest{Version: manifestVersion, Gen: 0}
	}
	return r, nil
}

// Manifest returns the follower's committed manifest.
func (r *Receiver) Manifest() Manifest { return r.manifest }

// ShippedBytes returns the payload bytes applied since open.
func (r *Receiver) ShippedBytes() int64 { return r.shipped }

// Pos derives the follower's replication cursor from its directory: the
// committed manifest's generation and the size of every segment and
// snapshot file.
func (r *Receiver) Pos() (ShipPos, error) {
	pos := ShipPos{Gen: r.manifest.Gen, Files: make(map[string]int64)}
	entries, err := os.ReadDir(r.dir)
	if err != nil {
		return pos, err
	}
	for _, e := range entries {
		name := e.Name()
		_, _, seg := parseSegmentName(name)
		_, snap := parseSnapshotName(name)
		if !seg && !snap {
			continue
		}
		if fi, err := e.Info(); err == nil {
			pos.Files[name] = fi.Size()
		}
	}
	return pos, nil
}

// Apply applies one decoded replication frame. Status frames are ignored
// (the ship loop interprets them before applying); everything else
// mutates the directory.
func (r *Receiver) Apply(rf stream.ReplFrame) error {
	switch rf.Kind {
	case stream.ReplSegment, stream.ReplTruncate:
		if rf.Site < Alerts {
			return fmt.Errorf("wal: no segment %d", rf.Site)
		}
		if rf.Kind == stream.ReplTruncate {
			return r.applyTruncate(segmentName(rf.Site, rf.Gen), rf)
		}
		return r.applyChunk(segmentName(rf.Site, rf.Gen), rf)
	case stream.ReplSnapshot:
		return r.applyChunk(snapshotName(rf.Gen), rf)
	case stream.ReplManifest:
		return r.applyManifest(rf)
	case stream.ReplStatus:
		return nil
	default:
		return fmt.Errorf("wal: unknown replication frame kind %d", rf.Kind)
	}
}

// file returns (caching) the read-write handle for one file of the
// directory, opened with the extra flag.
func (r *Receiver) file(name string, flag int) (*os.File, error) {
	if f := r.files[name]; f != nil {
		return f, nil
	}
	f, err := os.OpenFile(filepath.Join(r.dir, name), flag|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	r.files[name] = f
	return f, nil
}

// applyChunk writes one segment or snapshot chunk at its offset. Overlap
// with bytes already on disk is skipped (duplicate delivery); a gap is an
// error — the follower's pos and the primary's batch disagree, so the
// ship loop re-polls from a fresh Pos.
func (r *Receiver) applyChunk(name string, rf stream.ReplFrame) error {
	if rf.Gen < r.manifest.Gen {
		return nil // stale duplicate from before a manifest commit
	}
	f, err := r.file(name, os.O_CREATE)
	if err != nil {
		return err
	}
	fi, err := f.Stat()
	if err != nil {
		return err
	}
	size := fi.Size()
	if rf.Off > size {
		return fmt.Errorf("wal: chunk gap: %s has %d bytes, chunk at %d", name, size, rf.Off)
	}
	pay := rf.Payload
	off := rf.Off
	if off < size {
		skip := size - off
		if skip >= int64(len(pay)) {
			return nil
		}
		pay, off = pay[skip:], size
	}
	if _, err := f.WriteAt(pay, off); err != nil {
		return err
	}
	r.shipped += int64(len(pay))
	return nil
}

// applyTruncate cuts a segment back to the primary's size.
func (r *Receiver) applyTruncate(name string, rf stream.ReplFrame) error {
	if rf.Gen < r.manifest.Gen {
		return nil
	}
	f, err := r.file(name, os.O_CREATE)
	if err != nil {
		return err
	}
	if err := f.Truncate(rf.Off); err != nil {
		return err
	}
	return f.Sync()
}

// applyManifest commits the shipped manifest: fsync every file written,
// the snapshot it names included, and the directory (the manifest must
// never name state that is not durable), then write the manifest
// atomically, then retire files it obsoletes — the same commit discipline
// Log.Snapshot uses.
func (r *Receiver) applyManifest(rf stream.ReplFrame) error {
	m := Manifest{Version: manifestVersion, Gen: rf.Gen, Boundary: model.Epoch(rf.Off)}
	if rf.Site == 1 {
		m.Snapshot = snapshotName(m.Gen)
	}
	if m == r.manifest {
		return nil
	}
	if m.Snapshot != "" {
		// Hold the snapshot open even if it arrived before a restart, so
		// the sync pass covers it.
		if _, err := r.file(m.Snapshot, 0); err != nil {
			return fmt.Errorf("wal: manifest names missing snapshot: %w", err)
		}
	}
	if err := r.Close(); err != nil {
		return err
	}
	if err := syncDir(r.dir); err != nil { // the files' names, before the manifest's
		return err
	}
	if err := commitManifest(r.dir, m); err != nil {
		return err
	}
	r.manifest = m
	retireFiles(r.dir, m.Snapshot, m.Gen)
	return nil
}

// Close fsyncs and closes every open handle. The directory stays
// recoverable, and the Receiver usable: the next chunk reopens its file,
// and a new Receiver resumes from Pos.
func (r *Receiver) Close() error {
	var err error
	for name, f := range r.files {
		if serr := f.Sync(); err == nil {
			err = serr
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		delete(r.files, name)
	}
	return err
}

// fenceName is the per-directory fencing-epoch file. A promoted standby
// writes its primary's epoch + 1 before serving, so a later restart of
// the dead primary (same directory, same epoch) announces a stale epoch
// and is fenced by every peer.
const fenceName = "FENCE"

// ReadFence returns the data directory's fencing epoch, 0 when none has
// been written.
func ReadFence(dir string) (int64, error) {
	b, err := os.ReadFile(filepath.Join(dir, fenceName))
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseInt(strings.TrimSpace(string(b)), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("wal: corrupt fence file: %w", err)
	}
	return v, nil
}

// WriteFence durably records the data directory's fencing epoch.
func WriteFence(dir string, epoch int64) error {
	return writeFileAtomic(dir, fenceName, []byte(strconv.FormatInt(epoch, 10)+"\n"))
}
