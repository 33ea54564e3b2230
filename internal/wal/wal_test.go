package wal

import (
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"rfidtrack/internal/dist"
	"rfidtrack/internal/model"
	"rfidtrack/internal/rfinfer"
	"rfidtrack/internal/stream"
)

// openFresh opens a log in a temp dir and starts appending.
func openFresh(t *testing.T, sites int, opts Options) *Log {
	t.Helper()
	l, err := Open(t.TempDir(), sites, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Replay(func(stream.WALRecord) error { t.Fatal("fresh log replayed records"); return nil }); err != nil {
		t.Fatal(err)
	}
	if err := l.StartAppending(); err != nil {
		t.Fatal(err)
	}
	return l
}

// appendOne logs a single reading: a run of one.
func appendOne(l *Log, site int, t model.Epoch, tag model.TagID, mask model.Mask) error {
	return l.AppendReadings(site, []dist.Reading{{T: t, ID: tag, Mask: mask}})
}

// reopenAndReplay closes nothing (simulating a crash), reopens the dir and
// collects the replayed records.
func reopenAndReplay(t *testing.T, dir string, sites int) (*Log, []stream.WALRecord) {
	t.Helper()
	l, err := Open(dir, sites, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var recs []stream.WALRecord
	if err := l.Replay(func(rec stream.WALRecord) error {
		recs = append(recs, rec)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return l, recs
}

// TestLogAppendReplay pins the basic durability loop: append readings and
// departures, commit, "crash" (no Close), reopen, and every record comes
// back.
func TestLogAppendReplay(t *testing.T) {
	l := openFresh(t, 2, Options{SyncEvery: -1})
	want := 0
	for i := 0; i < 100; i++ {
		site := i % 2
		if err := appendOne(l, site, model.Epoch(i), model.TagID(i%7), model.Mask(1+i%3)); err != nil {
			t.Fatal(err)
		}
		want++
	}
	if err := l.AppendDeparture(dist.Departure{Object: 3, From: 0, To: 1, At: 42}); err != nil {
		t.Fatal(err)
	}
	want++
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	_, recs := reopenAndReplay(t, l.Dir(), 2)
	if len(recs) != want {
		t.Fatalf("replayed %d records, want %d", len(recs), want)
	}
	deps := 0
	for _, rec := range recs {
		if rec.Kind == stream.WALDepart {
			deps++
			if rec.Object != 3 || rec.From != 0 || rec.To != 1 || rec.At != 42 {
				t.Fatalf("departure round trip diverged: %+v", rec)
			}
		}
	}
	if deps != 1 {
		t.Fatalf("replayed %d departures, want 1", deps)
	}
}

// TestLogTornTailTruncated pins crash recovery over a torn append: a
// segment ending mid-frame replays every whole record, and the file is cut
// back so appending can resume cleanly.
func TestLogTornTailTruncated(t *testing.T) {
	l := openFresh(t, 1, Options{SyncEvery: -1})
	for i := 0; i < 10; i++ {
		if err := appendOne(l, 0, model.Epoch(i), 1, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the tail: chop the last 5 bytes of the site segment.
	path := filepath.Join(l.Dir(), segmentName(0, 1))
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-5); err != nil {
		t.Fatal(err)
	}
	l2, recs := reopenAndReplay(t, l.Dir(), 1)
	if len(recs) != 9 {
		t.Fatalf("torn log replayed %d records, want 9", len(recs))
	}
	if st := l2.Stats(); st.Truncated != 1 {
		t.Fatalf("Truncated = %d, want 1", st.Truncated)
	}
	// The file was cut at the last valid record: appending resumes and a
	// further replay sees 9 + new records, with no corruption in between.
	if err := l2.StartAppending(); err != nil {
		t.Fatal(err)
	}
	if err := appendOne(l2, 0, 99, 2, 1); err != nil {
		t.Fatal(err)
	}
	if err := l2.Commit(); err != nil {
		t.Fatal(err)
	}
	_, recs = reopenAndReplay(t, l.Dir(), 1)
	if len(recs) != 10 || recs[9].T != 99 {
		t.Fatalf("post-truncation append lost: %d records, tail %+v", len(recs), recs[len(recs)-1])
	}
}

// TestLogCorruptMiddleStops pins the corruption stance: bit rot mid-file
// truncates at the last valid record before it, never skips over it.
func TestLogCorruptMiddleStops(t *testing.T) {
	l := openFresh(t, 1, Options{SyncEvery: -1})
	for i := 0; i < 10; i++ {
		if err := appendOne(l, 0, model.Epoch(i), 1, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(l.Dir(), segmentName(0, 1))
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xFF
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	_, recs := reopenAndReplay(t, l.Dir(), 1)
	if len(recs) >= 10 {
		t.Fatalf("corrupt log replayed %d records", len(recs))
	}
	for i, rec := range recs {
		if rec.T != model.Epoch(i) {
			t.Fatalf("record %d out of order after corruption: %+v", i, rec)
		}
	}
}

// TestSnapshotRotationRetires pins the disk-bound invariant: committing a
// snapshot retires older generations and older snapshots, and recovery
// reads only the manifest generation.
func TestSnapshotRotationRetires(t *testing.T) {
	l := openFresh(t, 1, Options{SyncEvery: -1})
	for i := 0; i < 5; i++ {
		if err := appendOne(l, 0, model.Epoch(i), 1, 1); err != nil {
			t.Fatal(err)
		}
	}
	gen := l.NextGen()
	if err := l.Rotate(0, gen); err != nil {
		t.Fatal(err)
	}
	if err := l.Rotate(Departures, gen); err != nil {
		t.Fatal(err)
	}
	// Post-rotation appends land in the new generation and must survive.
	if err := appendOne(l, 0, 300, 2, 1); err != nil {
		t.Fatal(err)
	}
	st := &State{Boundary: 300, StreamTime: 299, Feed: dist.FeedState{Next: 300}}
	if err := l.Snapshot(st, gen); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(l.Dir(), segmentName(0, 1))); !os.IsNotExist(err) {
		t.Errorf("old generation segment survived retirement: %v", err)
	}

	l2, recs := reopenAndReplay(t, l.Dir(), 1)
	if len(recs) != 1 || recs[0].T != 300 {
		t.Fatalf("recovery replayed %d records (want just the post-rotation one): %+v", len(recs), recs)
	}
	got, ok, err := l2.LoadState()
	if err != nil || !ok {
		t.Fatalf("LoadState: ok=%v err=%v", ok, err)
	}
	if got.Boundary != 300 || got.StreamTime != 299 {
		t.Fatalf("snapshot state diverged: %+v", got)
	}
}

// TestCrashBetweenRotateAndCommit pins the snapshot-window guarantee: a
// crash after the segments rotated but before the manifest committed
// must lose nothing — records appended to the not-yet-committed
// generation live only there, so recovery replays generations at and
// above the manifest's, and the next snapshot must not reuse (and
// thereby splice stale records into) the orphaned generation's files.
func TestCrashBetweenRotateAndCommit(t *testing.T) {
	l := openFresh(t, 1, Options{SyncEvery: -1})
	if err := appendOne(l, 0, 10, 1, 1); err != nil { // gen 1
		t.Fatal(err)
	}
	gen := l.NextGen()
	if err := l.Rotate(0, gen); err != nil {
		t.Fatal(err)
	}
	if err := l.Rotate(Departures, gen); err != nil {
		t.Fatal(err)
	}
	if err := appendOne(l, 0, 20, 2, 1); err != nil { // gen 2, acked
		t.Fatal(err)
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	// Crash here: no Snapshot call, manifest still names gen 1.

	l2, recs := reopenAndReplay(t, l.Dir(), 1)
	if len(recs) != 2 || recs[0].T != 10 || recs[1].T != 20 {
		t.Fatalf("replay across the uncommitted rotation lost records: %+v", recs)
	}
	if g := l2.NextGen(); g != 3 {
		t.Fatalf("NextGen = %d would reuse the orphaned generation 2", g)
	}
	if err := l2.StartAppending(); err != nil {
		t.Fatal(err)
	}
	st := &State{Boundary: 300, StreamTime: 299, Feed: dist.FeedState{Next: 300}}
	gen = l2.NextGen()
	if err := l2.Rotate(0, gen); err != nil {
		t.Fatal(err)
	}
	if err := l2.Rotate(Departures, gen); err != nil {
		t.Fatal(err)
	}
	if err := l2.Snapshot(st, gen); err != nil {
		t.Fatal(err)
	}
	// The committed snapshot retires both gen 1 and the orphan gen 2.
	_, recs = reopenAndReplay(t, l.Dir(), 1)
	if len(recs) != 0 {
		t.Fatalf("retired generations replayed %d records: %+v", len(recs), recs)
	}
}

// TestCommitGroupSkip pins the group-commit fast path: a commit whose
// appends were already covered by a completed commit performs no new
// fsync pass.
func TestCommitGroupSkip(t *testing.T) {
	l := openFresh(t, 1, Options{SyncEvery: -1})
	defer l.Close()
	if err := appendOne(l, 0, 1, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	syncs := l.Stats().Syncs
	if err := l.Commit(); err != nil { // nothing new: must skip
		t.Fatal(err)
	}
	if got := l.Stats().Syncs; got != syncs {
		t.Fatalf("covered commit ran %d extra fsync passes", got-syncs)
	}
	if err := appendOne(l, 0, 2, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(); err != nil { // new append: must sync
		t.Fatal(err)
	}
	if got := l.Stats().Syncs; got != syncs+1 {
		t.Fatalf("post-append commit syncs = %d, want %d", got, syncs+1)
	}
}

// TestAppendDuringFsync pins that a segment's fsync runs outside the lock
// appends take: while site 0's fsync is held, an append to site 0 returns,
// and a commit after the release covers it; a rotation of site 0 waits for
// an fsync in flight instead of closing the file under it; and a failed
// fsync leaves the segment dirty, so the next commit retries it.
func TestAppendDuringFsync(t *testing.T) {
	l := openFresh(t, 1, Options{SyncEvery: -1})
	defer l.Close()
	stop := make(chan struct{}) // lets a held fsync go when the test fails
	defer close(stop)
	var (
		mu    sync.Mutex
		hold  chan struct{} // non-nil: the next fsync reports on entered and waits for it to close
		fail  error         // non-nil: the next fsync fails with it
		calls int
	)
	entered := make(chan struct{}, 1)
	l.fsync = func(f *os.File) error {
		mu.Lock()
		h, e := hold, fail
		hold, fail = nil, nil
		calls++
		mu.Unlock()
		if h != nil {
			entered <- struct{}{}
			select {
			case <-h:
			case <-stop:
			}
		}
		if e != nil {
			return e
		}
		return f.Sync()
	}
	holdNext := func() chan struct{} {
		mu.Lock()
		defer mu.Unlock()
		hold = make(chan struct{})
		return hold
	}
	within := func(what string, c <-chan error) {
		t.Helper()
		select {
		case err := <-c:
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s did not return", what)
		}
	}
	async := func(f func() error) <-chan error {
		c := make(chan error, 1)
		go func() { c <- f() }()
		return c
	}
	sg := l.segs[0]

	if err := appendOne(l, 0, 1, 1, 1); err != nil {
		t.Fatal(err)
	}
	release := holdNext()
	committed := async(l.Commit)
	<-entered
	within("an append while the segment's fsync is held", async(func() error { return appendOne(l, 0, 2, 1, 1) }))
	close(release)
	within("the held commit", committed)
	if !sg.dirty.Load() {
		t.Fatal("an append made during an fsync left the segment clean")
	}
	mu.Lock()
	before := calls
	mu.Unlock()
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	synced := calls - before
	mu.Unlock()
	l.syncMu.Lock()
	covered := l.syncedSeq
	l.syncMu.Unlock()
	if synced != 1 || sg.dirty.Load() || covered != l.appendSeq.Load() {
		t.Fatalf("commit after the release: %d fsyncs, dirty %v, covered %d of %d appends; want 1, false, all",
			synced, sg.dirty.Load(), covered, l.appendSeq.Load())
	}

	if err := appendOne(l, 0, 3, 1, 1); err != nil {
		t.Fatal(err)
	}
	release = holdNext()
	committed = async(l.Commit)
	<-entered
	rotated := async(func() error { return l.Rotate(0, l.NextGen()) })
	select {
	case err := <-rotated:
		t.Fatalf("a rotation returned (%v) while the segment's fsync was in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	within("the held commit", committed)
	within("the rotation", rotated)

	if err := appendOne(l, 0, 4, 1, 1); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	fail = errors.New("injected fsync failure")
	mu.Unlock()
	if err := l.Commit(); err == nil {
		t.Fatal("a failed fsync committed")
	}
	if !sg.dirty.Load() {
		t.Fatal("a failed fsync left the segment clean: the next commit would skip it")
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	if sg.dirty.Load() {
		t.Fatal("the retrying commit left the segment dirty")
	}

	_, recs := reopenAndReplay(t, l.Dir(), 1)
	if len(recs) != 4 {
		t.Fatalf("replayed %d readings, want 4", len(recs))
	}
}

// TestStateRoundTrip pins the snapshot codec bit-exactly over a fully
// populated State, including engine state from a live engine.
func TestStateRoundTrip(t *testing.T) {
	st := &State{
		Boundary:   600,
		StreamTime: 777,
		Feed: dist.FeedState{
			Next:            600,
			Runs:            2,
			QueryStateBytes: 17,
			Links:           []dist.LinkCost{{From: 0, To: 1, Costs: dist.Costs{Bytes: 120, Messages: 3}}},
			Owner:           []int32{0, 1, 1, 0},
			Owned:           [][]model.TagID{{0, 3}, {1, 2}},
			Sites:           []dist.SiteStats{{Epochs: 2}, {Epochs: 2, MigrationsIn: 1, BytesIn: 120}},
		},
		Engines: []rfinfer.EngineState{},
		Queries: []QueryState{
			{
				Parts:   []QueryPartition{{Tag: 3, State: stream.SeqState{Started: true, First: 10, Last: 400, Values: []float64{1.5, 2.5}}}},
				Matches: []stream.Match{{Tag: 3, First: 10, Last: 400, Values: []float64{1.5}}},
			},
			{Parts: []QueryPartition{}, Matches: []stream.Match{}},
		},
		Alerts:      []Alert{{Site: 1, Tag: 3, First: 10, Last: 400, Values: []float64{1.5}}},
		Buffered:    [][]dist.Reading{{{T: 601, ID: 2, Mask: 3}}, {}},
		PendingDeps: []dist.Departure{{Object: 3, From: 1, To: 0, At: 650}},
		Shards:      []ShardCounters{{Received: 100, Late: 2}, {Received: 50}},
		Invalid:     4,
		Misc:        1,
	}
	st.Feed.Stats.Observed = 99
	st.Feed.Stats.Checkpoints = 2

	b, err := EncodeState(st)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeState(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, st) {
		t.Fatalf("state round trip diverged:\n got %+v\nwant %+v", got, st)
	}

	// A version-3 snapshot of the same State — encoded before the per-site
	// inbox-peak and stall counters left the format, with both set on site
	// 1 — is refused, naming the version it found and the one it reads.
	v3, err := hex.DecodeString(snapshotV3)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := DecodeState(v3); err == nil || !strings.Contains(err.Error(), "version 3") || !strings.Contains(err.Error(), "version 4") {
		t.Fatalf("version-3 snapshot: %+v, err %v; want a refusal naming versions 3 and 4", got, err)
	}

	// Corruption anywhere in the file must be detected, never decoded.
	for i := 8; i < len(b); i += 7 {
		dirty := append([]byte(nil), b...)
		dirty[i] ^= 0x10
		if _, err := DecodeState(dirty); err == nil {
			t.Fatalf("flipped byte %d decoded silently", i)
		}
	}
}

// snapshotV3 is TestStateRoundTrip's State as the version-3 codec wrote it,
// with InboxPeak 100 and Stall 5 on site 1.
const snapshotV3 = "52464944534e4150030000001d5b4c84b009920cb009000000000422010001f00106040001010001020200030201020204000000000000040200f00100c8010ac6010000000400000000000000000001020103010a90030280808080808080fc3f808080808080808240010314a00601000000000000f83f000001010314a00601000000000000f83f000201b20902030001030100940a02c801046400080200"
