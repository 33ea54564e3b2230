// WAL shipping: the replication layer that keeps a warm standby's data
// directory byte-compatible with its primary's. The primary side
// (Log.ShipDelta) is stateless — the follower reports where it is (ShipPos)
// and the primary answers with RFS1 frames covering the gap: snapshot
// chunks first, then segment tails, then the manifest commit point, in the
// same order the recovery path consumes them. The follower side (Receiver)
// applies those frames with plain WriteAt contiguity checks and commits
// the manifest only after fsyncing everything before it — so at every
// instant the follower's directory is one a normal recovery (`wal.Open`,
// then `LoadState` and `ReplayRuns`) can recover, which is exactly what
// promotion does.
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

// SegPos is a follower's byte offset into one WAL segment.
type SegPos struct {
	// Site and Gen address the segment: Site is a site or one of the
	// shared segment ids Departures, Migrations and Alerts.
	Site int `json:"site"`
	Gen  int `json:"gen"`
	// Off is the follower's current size of that segment file.
	Off int64 `json:"off"`
}

// ShipPos is a follower's full replication cursor: its committed manifest,
// its per-segment offsets, and any snapshot it is mid-way through
// receiving. The follower derives it from its own directory (Receiver.Pos)
// and sends it with every subscribe poll, which is what makes the primary
// side stateless and a re-subscribe after any interruption safe.
type ShipPos struct {
	// Gen, Boundary and HasSnap mirror the follower's committed manifest
	// (Gen 0 before the first shipped manifest commit).
	Gen      int         `json:"gen"`
	Boundary model.Epoch `json:"boundary"`
	HasSnap  bool        `json:"has_snap"`
	// Segs holds the follower's segment sizes.
	Segs []SegPos `json:"segs,omitempty"`
	// PendingSnap is the boundary of a snapshot the follower has partially
	// (or fully, but uncommitted) received, -1 when none; PendingBytes is
	// how much of it the follower has.
	PendingSnap  model.Epoch `json:"pending_snap"`
	PendingBytes int64       `json:"pending_bytes"`
}

// ShipDelta appends RFS1 frames to dst covering the gap between a
// follower at pos and this log's current durable state, up to roughly
// maxBytes of payload (<= 0 means DefaultShipBudget). It commits (group
// fsyncs) first, so every byte shipped is durable on the primary before
// it can reach the follower.
//
// Frame order matches recovery's needs: the active snapshot (when the
// follower lacks it), then every live segment's tail, then — only when
// both completed within budget — the manifest frame that commits them on
// the follower. A budget exhausted mid-way or a file retired by a
// concurrent snapshot simply ends the batch early with no manifest frame;
// the follower's next poll resumes from its new pos. The returned batch
// never includes a status frame; the serving layer appends that itself.
func (l *Log) ShipDelta(dst []byte, pos ShipPos, maxBytes int) ([]byte, error) {
	if maxBytes <= 0 {
		maxBytes = DefaultShipBudget
	}
	if err := l.Commit(); err != nil {
		return dst, err
	}
	m := l.Manifest()
	wantSnap := m.Snapshot != ""
	budget := maxBytes
	complete := true

	if wantSnap && (pos.Boundary != m.Boundary || !pos.HasSnap) {
		resume := int64(0)
		if pos.PendingSnap == m.Boundary {
			resume = pos.PendingBytes
		}
		var done bool
		var err error
		dst, done, budget, err = shipSnapshot(dst, filepath.Join(l.dir, m.Snapshot), int(m.Boundary), resume, budget)
		if err != nil {
			if errors.Is(err, os.ErrNotExist) {
				return dst, nil // snapshot retired under us; next poll sees the new manifest
			}
			return dst, err
		}
		if !done {
			return dst, nil // budget exhausted mid-snapshot
		}
	}

	offs := make(map[segKey]int64, len(pos.Segs))
	for _, sp := range pos.Segs {
		offs[segKey{sp.Site, sp.Gen}] = sp.Off
	}
	segs, err := listSegments(l.dir, m.Gen)
	if err != nil {
		return dst, err
	}
	for _, sg := range segs {
		if budget <= 0 {
			complete = false
			break
		}
		off, known := offs[sg]
		var done bool
		dst, done, budget, err = shipSegment(dst, filepath.Join(l.dir, segmentName(sg.id, sg.gen)),
			sg.id, sg.gen, off, known, budget)
		if err != nil {
			if errors.Is(err, os.ErrNotExist) {
				complete = false // retired by a concurrent snapshot commit
				break
			}
			return dst, err
		}
		if !done {
			complete = false
			break
		}
	}

	if complete && (pos.Gen != m.Gen || pos.Boundary != m.Boundary || pos.HasSnap != wantSnap) {
		hasSnap := 0
		if wantSnap {
			hasSnap = 1
		}
		dst = stream.AppendReplFrame(dst, stream.ReplManifest, hasSnap, m.Gen, int64(m.Boundary), nil)
	}
	return dst, nil
}

// shipSegment appends chunk frames for one segment file from the
// follower's offset through the file's current size, within budget. A
// follower offset past the file (the primary recovered and truncated a
// tail the follower had shipped) becomes a truncate frame instead, and a
// segment the follower has never seen ships an empty creation chunk even
// at size zero — the follower's directory mirrors the primary's file set,
// not just its bytes.
func shipSegment(dst []byte, path string, site, gen int, off int64, known bool, budget int) ([]byte, bool, int, error) {
	f, err := os.Open(path)
	if err != nil {
		return dst, false, budget, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return dst, false, budget, err
	}
	size := fi.Size()
	if off > size {
		dst = stream.AppendReplFrame(dst, stream.ReplTruncate, site, gen, size, nil)
		return dst, true, budget, nil
	}
	if size == 0 && !known {
		dst = stream.AppendReplFrame(dst, stream.ReplSegment, site, gen, 0, nil)
		return dst, true, budget, nil
	}
	buf := make([]byte, min(shipChunk, max(int(size-off), 1)))
	for off < size && budget > 0 {
		n := min(int64(shipChunk), size-off, int64(budget))
		if _, err := f.ReadAt(buf[:n], off); err != nil {
			return dst, false, budget, err
		}
		dst = stream.AppendReplFrame(dst, stream.ReplSegment, site, gen, off, buf[:n])
		off += n
		budget -= int(n)
	}
	return dst, off == size, budget, nil
}

// shipSnapshot appends chunk frames for the active snapshot from the
// follower's resume point through EOF, flagging the final chunk so the
// receiver can rename its temp file into place. A follower already
// holding every byte still gets one empty final chunk, so a rename lost
// to a torn connection is re-triggered.
func shipSnapshot(dst []byte, path string, boundary int, resume int64, budget int) ([]byte, bool, int, error) {
	f, err := os.Open(path)
	if err != nil {
		return dst, false, budget, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return dst, false, budget, err
	}
	size := fi.Size()
	if resume > size || resume < 0 {
		resume = 0 // stale or corrupt cursor: restart the file
	}
	if resume == size {
		dst = stream.AppendReplFrame(dst, stream.ReplSnapshot, 1, boundary, resume, nil)
		return dst, true, budget, nil
	}
	buf := make([]byte, min(int64(shipChunk), size-resume))
	for resume < size {
		if budget <= 0 {
			return dst, false, budget, nil
		}
		n := min(int64(shipChunk), size-resume, int64(budget))
		if _, err := f.ReadAt(buf[:n], resume); err != nil {
			return dst, false, budget, err
		}
		final := 0
		if resume+n == size {
			final = 1
		}
		dst = stream.AppendReplFrame(dst, stream.ReplSnapshot, final, boundary, resume, buf[:n])
		resume += n
		budget -= int(n)
	}
	return dst, true, budget, nil
}

// Receiver applies a primary's shipped frames to a follower data
// directory, keeping it recoverable at every instant: chunk writes are
// contiguity-checked, duplicates are skipped (re-application after a torn
// connection is idempotent), and the manifest is committed only after an
// fsync pass over everything shipped before it. Not safe for concurrent
// use; the standby runs one ship loop.
type Receiver struct {
	dir      string
	manifest Manifest
	files    map[segKey]*os.File

	pending         *os.File // snapshot temp file being assembled
	pendingBoundary model.Epoch
	pendingOff      int64

	shipped int64
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
	r := &Receiver{dir: dir, files: make(map[segKey]*os.File), pendingBoundary: -1}
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
// committed manifest, every segment file's size, and any snapshot
// received but not yet committed.
func (r *Receiver) Pos() (ShipPos, error) {
	pos := ShipPos{
		Gen:         r.manifest.Gen,
		Boundary:    r.manifest.Boundary,
		HasSnap:     r.manifest.Snapshot != "",
		PendingSnap: -1,
	}
	entries, err := os.ReadDir(r.dir)
	if err != nil {
		return pos, err
	}
	for _, e := range entries {
		name := e.Name()
		if site, gen, ok := parseSegmentName(name); ok {
			fi, err := e.Info()
			if err != nil {
				continue
			}
			pos.Segs = append(pos.Segs, SegPos{Site: site, Gen: gen, Off: fi.Size()})
			continue
		}
		// A snapshot other than the committed one — temp or fully renamed —
		// is one the primary is (or was) shipping; report it so shipping
		// resumes instead of restarting.
		b, tmp, ok := parseSnapshotName(name)
		if !ok || name == r.manifest.Snapshot {
			continue
		}
		fi, err := e.Info()
		if err != nil {
			continue
		}
		if b > pos.PendingSnap || (b == pos.PendingSnap && !tmp) {
			pos.PendingSnap, pos.PendingBytes = b, fi.Size()
		}
	}
	return pos, nil
}

// Apply applies one decoded replication frame. Status frames are ignored
// (the ship loop interprets them before applying); everything else
// mutates the directory.
func (r *Receiver) Apply(rf stream.ReplFrame) error {
	switch rf.Kind {
	case stream.ReplSegment:
		return r.applySegment(rf)
	case stream.ReplSnapshot:
		return r.applySnapshot(rf)
	case stream.ReplManifest:
		return r.applyManifest(rf)
	case stream.ReplTruncate:
		return r.applyTruncate(rf)
	case stream.ReplStatus:
		return nil
	default:
		return fmt.Errorf("wal: unknown replication frame kind %d", rf.Kind)
	}
}

// openSegment returns (caching) the writable handle for one segment.
func (r *Receiver) openSegment(site, gen int) (*os.File, error) {
	key := segKey{site, gen}
	if f := r.files[key]; f != nil {
		return f, nil
	}
	if site < Alerts {
		return nil, fmt.Errorf("wal: no segment %d", site)
	}
	f, err := os.OpenFile(filepath.Join(r.dir, segmentName(site, gen)), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	r.files[key] = f
	return f, nil
}

// applySegment writes one segment chunk at its offset. Overlap with bytes
// already on disk is skipped (duplicate delivery); a gap is an error — the
// follower's pos and the primary's batch disagree, so the ship loop
// re-polls from a fresh Pos.
func (r *Receiver) applySegment(rf stream.ReplFrame) error {
	if rf.Gen < r.manifest.Gen {
		return nil // stale duplicate from before a manifest commit
	}
	f, err := r.openSegment(rf.Site, rf.Gen)
	if err != nil {
		return err
	}
	fi, err := f.Stat()
	if err != nil {
		return err
	}
	size := fi.Size()
	if rf.Off > size {
		return fmt.Errorf("wal: segment chunk gap: site %d gen %d has %d bytes, chunk at %d",
			rf.Site, rf.Gen, size, rf.Off)
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

// applySnapshot writes one snapshot chunk into the boundary's temp file,
// renaming it into place on the final chunk.
func (r *Receiver) applySnapshot(rf stream.ReplFrame) error {
	boundary := model.Epoch(rf.Gen)
	path := filepath.Join(r.dir, snapshotName(boundary))
	if _, err := os.Stat(path); err == nil {
		return nil // already assembled and renamed; duplicate chunk
	}
	if r.pending == nil || r.pendingBoundary != boundary {
		r.closePending()
		f, err := os.OpenFile(path+".tmp", os.O_CREATE|os.O_RDWR, 0o644)
		if err != nil {
			return err
		}
		fi, err := f.Stat()
		if err != nil {
			f.Close()
			return err
		}
		r.pending, r.pendingBoundary, r.pendingOff = f, boundary, fi.Size()
	}
	if rf.Off == 0 && r.pendingOff != 0 {
		// The primary restarted the file (stale cursor); follow suit.
		if err := r.pending.Truncate(0); err != nil {
			return err
		}
		r.pendingOff = 0
	}
	if rf.Off > r.pendingOff {
		return fmt.Errorf("wal: snapshot chunk gap: have %d bytes, chunk at %d", r.pendingOff, rf.Off)
	}
	pay := rf.Payload
	if skip := r.pendingOff - rf.Off; skip > 0 {
		if skip >= int64(len(pay)) {
			pay = nil
		} else {
			pay = pay[skip:]
		}
	}
	if len(pay) > 0 {
		if _, err := r.pending.WriteAt(pay, r.pendingOff); err != nil {
			return err
		}
		r.pendingOff += int64(len(pay))
		r.shipped += int64(len(pay))
	}
	if rf.Site == 1 {
		return r.sealPending(path)
	}
	return nil
}

// sealPending fsyncs the assembled snapshot temp file and renames it to
// its committed name.
func (r *Receiver) sealPending(path string) error {
	if err := r.pending.Sync(); err != nil {
		return err
	}
	r.pending.Close()
	r.pending, r.pendingBoundary = nil, -1
	if err := os.Rename(path+".tmp", path); err != nil {
		return err
	}
	return syncDir(r.dir)
}

// closePending drops an in-progress snapshot temp handle, if any.
func (r *Receiver) closePending() {
	if r.pending != nil {
		r.pending.Close()
		r.pending, r.pendingBoundary = nil, -1
	}
}

// applyTruncate cuts a segment back to the primary's size.
func (r *Receiver) applyTruncate(rf stream.ReplFrame) error {
	if rf.Gen < r.manifest.Gen {
		return nil
	}
	f, err := r.openSegment(rf.Site, rf.Gen)
	if err != nil {
		return err
	}
	if err := f.Truncate(rf.Off); err != nil {
		return err
	}
	return f.Sync()
}

// applyManifest commits the shipped manifest: fsync every shipped segment
// first (the manifest must never name state that is not durable), then
// write the manifest atomically, then retire files it obsoletes — the
// same commit discipline Log.Snapshot uses.
func (r *Receiver) applyManifest(rf stream.ReplFrame) error {
	m := Manifest{Version: manifestVersion, Gen: rf.Gen, Boundary: model.Epoch(rf.Off)}
	if rf.Site == 1 {
		m.Snapshot = snapshotName(m.Boundary)
		path := filepath.Join(r.dir, m.Snapshot)
		if _, err := os.Stat(path); err != nil {
			// The final-chunk rename was lost with a torn connection; the
			// temp file, if complete, still holds every byte.
			if r.pending == nil || r.pendingBoundary != m.Boundary {
				return fmt.Errorf("wal: manifest names missing snapshot %s", m.Snapshot)
			}
			if err := r.sealPending(path); err != nil {
				return err
			}
		}
	}
	if m == r.manifest {
		return nil
	}
	for key, f := range r.files {
		if err := f.Sync(); err != nil {
			return err
		}
		if key.gen < m.Gen {
			f.Close()
			delete(r.files, key)
		}
	}
	r.closePending() // any still-pending snapshot is stale once a manifest commits
	if err := commitManifest(r.dir, m); err != nil {
		return err
	}
	r.manifest = m
	retireFiles(r.dir, m.Snapshot, m.Gen)
	return nil
}

// Close fsyncs and closes every open handle. The directory stays
// recoverable; a new Receiver resumes from Pos.
func (r *Receiver) Close() error {
	var err error
	for key, f := range r.files {
		if serr := f.Sync(); err == nil {
			err = serr
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		delete(r.files, key)
	}
	r.closePending()
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
