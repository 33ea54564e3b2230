package wal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"rfidtrack/internal/dist"
	"rfidtrack/internal/model"
	"rfidtrack/internal/stream"
)

// applyFrames decodes a shipped batch and applies every frame.
func applyFrames(t *testing.T, r *Receiver, frames []byte) {
	t.Helper()
	for len(frames) > 0 {
		rf, n, err := stream.DecodeReplFrame(frames)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Apply(rf); err != nil {
			t.Fatal(err)
		}
		frames = frames[n:]
	}
}

// syncFollower polls ShipDelta until the follower is fully caught up,
// returning the number of non-empty batches it took.
func syncFollower(t *testing.T, l *Log, r *Receiver, budget int) int {
	t.Helper()
	rounds := 0
	for {
		pos, err := r.Pos()
		if err != nil {
			t.Fatal(err)
		}
		frames, err := l.ShipDelta(nil, pos, budget)
		if err != nil {
			t.Fatal(err)
		}
		if len(frames) == 0 {
			return rounds
		}
		rounds++
		applyFrames(t, r, frames)
		if rounds > 10000 {
			t.Fatal("shipping never converged")
		}
	}
}

// dirFiles reads every non-FENCE file in a data directory by name.
func dirFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte)
	for _, e := range entries {
		if e.Name() == fenceName {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = b
	}
	return files
}

// requireDirsEqual asserts two data directories are byte-identical.
func requireDirsEqual(t *testing.T, primary, follower string) {
	t.Helper()
	want, got := dirFiles(t, primary), dirFiles(t, follower)
	for name, wb := range want {
		gb, ok := got[name]
		if !ok {
			t.Fatalf("follower is missing %s", name)
		}
		if !bytes.Equal(wb, gb) {
			t.Fatalf("%s diverged: %d bytes on primary, %d on follower", name, len(wb), len(gb))
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Fatalf("follower has extra file %s", name)
		}
	}
}

// TestShipRoundTrip pins the core shipping contract: a follower that
// applies the shipped stream ends byte-identical to the primary, and its
// own recovery replays exactly the primary's records.
func TestShipRoundTrip(t *testing.T) {
	l := openFresh(t, 2, Options{SyncEvery: -1})
	for i := 0; i < 200; i++ {
		if err := appendOne(l, i%2, model.Epoch(i), model.TagID(i%7), model.Mask(1+i%3)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.AppendDeparture(dist.Departure{Object: 3, From: 0, To: 1, At: 42}); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendMigration(dist.Departure{Object: 3, From: 0, To: 1, At: 42}, []byte{9, 9}); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendAlert(Alert{Site: 1, Tag: 3, First: 10, Last: 40, Values: []float64{1.5}}); err != nil {
		t.Fatal(err)
	}

	fdir := t.TempDir()
	r, err := OpenReceiver(fdir)
	if err != nil {
		t.Fatal(err)
	}
	syncFollower(t, l, r, 0)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	requireDirsEqual(t, l.Dir(), fdir)

	_, prim := reopenAndReplay(t, l.Dir(), 2)
	_, foll := reopenAndReplay(t, fdir, 2)
	if !reflect.DeepEqual(prim, foll) {
		t.Fatalf("follower replay diverged: %d records vs %d", len(foll), len(prim))
	}
	if len(foll) != 203 {
		t.Fatalf("replayed %d records, want 203", len(foll))
	}
}

// TestShipSnapshotAndRotation pins shipping across a snapshot commit: the
// follower receives the snapshot, the new generation's segments and the
// manifest, retires its old generation exactly as the primary did, and
// LoadState works over the shipped directory.
func TestShipSnapshotAndRotation(t *testing.T) {
	l := openFresh(t, 1, Options{SyncEvery: -1})
	for i := 0; i < 50; i++ {
		if err := appendOne(l, 0, model.Epoch(i), 1, 1); err != nil {
			t.Fatal(err)
		}
	}

	// Ship generation 1 first, so the follower has files to retire.
	fdir := t.TempDir()
	r, err := OpenReceiver(fdir)
	if err != nil {
		t.Fatal(err)
	}
	syncFollower(t, l, r, 0)
	if r.Manifest().Gen != 1 {
		t.Fatalf("follower gen = %d, want 1", r.Manifest().Gen)
	}

	gen := l.NextGen()
	if err := l.Rotate(0, gen); err != nil {
		t.Fatal(err)
	}
	if err := l.Rotate(Departures, gen); err != nil {
		t.Fatal(err)
	}
	if err := appendOne(l, 0, 300, 2, 1); err != nil {
		t.Fatal(err)
	}
	st := &State{Boundary: 300, StreamTime: 299, Feed: dist.FeedState{Next: 300}}
	if err := l.Snapshot(st, gen); err != nil {
		t.Fatal(err)
	}

	syncFollower(t, l, r, 0)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	requireDirsEqual(t, l.Dir(), fdir)

	l2, recs := reopenAndReplay(t, fdir, 1)
	if len(recs) != 1 || recs[0].T != 300 {
		t.Fatalf("follower recovery replayed %+v, want the one post-rotation record", recs)
	}
	got, ok, err := l2.LoadState()
	if err != nil || !ok {
		t.Fatalf("LoadState on shipped dir: ok=%v err=%v", ok, err)
	}
	if got.Boundary != 300 || got.StreamTime != 299 {
		t.Fatalf("shipped snapshot state diverged: %+v", got)
	}
	if m := l2.Manifest(); m.Gen != gen || m.Snapshot != snapshotName(gen) {
		t.Fatalf("follower manifest %+v, want generation %d naming %s", m, gen, snapshotName(gen))
	}
}

// snapshotAt rotates every segment of a one-site log to the next
// generation and commits a snapshot at boundary with the given buffered
// readings, returning the generation.
func snapshotAt(t *testing.T, l *Log, boundary model.Epoch, buffered []dist.Reading) int {
	t.Helper()
	gen := l.NextGen()
	for _, id := range []int{0, Departures, Migrations, Alerts} {
		if err := l.Rotate(id, gen); err != nil {
			t.Fatal(err)
		}
	}
	st := &State{Boundary: boundary, StreamTime: boundary - 1, Feed: dist.FeedState{Next: boundary},
		Buffered: [][]dist.Reading{buffered}}
	if err := l.Snapshot(st, gen); err != nil {
		t.Fatal(err)
	}
	return gen
}

// TestShipTwoSnapshotsOneBoundary pins the case a boundary-named snapshot
// lost: two snapshots at one checkpoint boundary (a forced snapshot before
// the next checkpoint) with a reading logged between them. A follower
// caught up on the first must end byte-identical to the primary and
// recover that reading from the second.
func TestShipTwoSnapshotsOneBoundary(t *testing.T) {
	l := openFresh(t, 1, Options{SyncEvery: -1})
	defer l.Close()
	fdir := t.TempDir()
	r, err := OpenReceiver(fdir)
	if err != nil {
		t.Fatal(err)
	}
	snapshotAt(t, l, 300, nil)
	syncFollower(t, l, r, 0)

	between := dist.Reading{T: 350, ID: 9, Mask: 1}
	if err := l.AppendReadings(0, []dist.Reading{between}); err != nil {
		t.Fatal(err)
	}
	syncFollower(t, l, r, 0)
	snapshotAt(t, l, 300, []dist.Reading{between})
	syncFollower(t, l, r, 0)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	requireDirsEqual(t, l.Dir(), fdir)

	fl, runs, _ := replayRuns(t, fdir, 1)
	st, ok, err := fl.LoadState()
	if err != nil || !ok {
		t.Fatalf("follower LoadState: ok=%v err=%v", ok, err)
	}
	if len(st.Buffered) != 1 || !reflect.DeepEqual(st.Buffered[0], []dist.Reading{between}) || len(runs) != 0 {
		t.Fatalf("follower recovered buffered %+v and replayed %+v, want the reading %+v buffered", st.Buffered, runs, between)
	}
}

// TestShipResumesPartSnapshot pins a follower restarted half-way through a
// snapshot: its cursor holds the part-shipped file's size, the primary
// resumes from there, and the follower converges to the primary's bytes.
func TestShipResumesPartSnapshot(t *testing.T) {
	l := openFresh(t, 1, Options{SyncEvery: -1})
	defer l.Close()
	gen := snapshotAt(t, l, 300, someReadings(200))
	fdir := t.TempDir()
	r, err := OpenReceiver(fdir)
	if err != nil {
		t.Fatal(err)
	}
	pos, err := r.Pos()
	if err != nil {
		t.Fatal(err)
	}
	frames, err := l.ShipDelta(nil, pos, 512)
	if err != nil {
		t.Fatal(err)
	}
	applyFrames(t, r, frames)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	if r, err = OpenReceiver(fdir); err != nil {
		t.Fatal(err)
	}
	if pos, err = r.Pos(); err != nil {
		t.Fatal(err)
	}
	name := snapshotName(gen)
	if pos.Gen != 0 || pos.Files[name] != 512 {
		t.Fatalf("restarted follower's cursor %+v, want generation 0 holding 512 bytes of %s", pos, name)
	}
	if frames, err = l.ShipDelta(nil, pos, 512); err != nil {
		t.Fatal(err)
	}
	rf, _, err := stream.DecodeReplFrame(frames)
	if err != nil || rf.Kind != stream.ReplSnapshot || rf.Gen != gen || rf.Off != 512 {
		t.Fatalf("resumed batch opens with %+v (err %v), want %s's chunk at 512", rf, err, name)
	}
	syncFollower(t, l, r, 512)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	requireDirsEqual(t, l.Dir(), fdir)
}

// TestCutShortSnapshotRecovers pins a crash in the middle of writing a
// snapshot: the cut-short file is named by no manifest, so recovery loads
// the previous snapshot and replays the tail, and the next Snapshot
// retires the cut file.
func TestCutShortSnapshotRecovers(t *testing.T) {
	l := openFresh(t, 1, Options{SyncEvery: -1})
	snapshotAt(t, l, 300, nil)
	gen := l.NextGen()
	if err := l.Rotate(0, gen); err != nil {
		t.Fatal(err)
	}
	tail := someReadings(5)
	if err := l.AppendReadings(0, tail); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	full := AppendState(nil, &State{Boundary: 600, StreamTime: 599, Feed: dist.FeedState{Next: 600}})
	cut := filepath.Join(l.Dir(), snapshotName(gen))
	if err := os.WriteFile(cut, full[:len(full)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	l2, runs, _ := replayRuns(t, l.Dir(), 1)
	st, ok, err := l2.LoadState()
	if err != nil || !ok || st.Boundary != 300 {
		t.Fatalf("LoadState over a cut-short snapshot = %+v, %v, %v; want the boundary-300 snapshot", st, ok, err)
	}
	var got []dist.Reading
	for _, run := range runs {
		got = append(got, run.rs...)
	}
	if !reflect.DeepEqual(got, tail) {
		t.Fatalf("replayed %+v, want the tail %+v", got, tail)
	}
	if err := l2.StartAppending(); err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	snapshotAt(t, l2, 600, tail)
	if _, err := os.Stat(cut); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("the cut-short %s outlived the next snapshot (stat: %v)", snapshotName(gen), err)
	}
}

// TestSnapshotNeverOverwritesCommitted pins the guard that keeps a name
// meaning one sequence of bytes: a snapshot at a generation not above the
// manifest's is refused, and the committed snapshot still loads.
func TestSnapshotNeverOverwritesCommitted(t *testing.T) {
	l := openFresh(t, 1, Options{SyncEvery: -1})
	defer l.Close()
	gen := snapshotAt(t, l, 300, nil)
	for _, g := range []int{gen, gen - 1} {
		if err := l.Snapshot(&State{Boundary: 600, Feed: dist.FeedState{Next: 600}}, g); err == nil {
			t.Fatalf("a snapshot at generation %d over the manifest's %d was committed", g, gen)
		}
	}
	if st, ok, err := l.LoadState(); err != nil || !ok || st.Boundary != 300 {
		t.Fatalf("LoadState after refused snapshots = %+v, %v, %v; want the boundary-300 snapshot", st, ok, err)
	}
}

// TestShipSmallBudgetResume pins resumability: shipping under a tiny
// budget takes many batches but converges to the same bytes, and a batch
// lost in flight (applied never) is simply re-shipped — Pos is derived
// from disk, so nothing is skipped and re-application is idempotent.
func TestShipSmallBudgetResume(t *testing.T) {
	l := openFresh(t, 1, Options{SyncEvery: -1})
	for i := 0; i < 2000; i++ {
		if err := appendOne(l, 0, model.Epoch(i), model.TagID(i), 3); err != nil {
			t.Fatal(err)
		}
	}

	fdir := t.TempDir()
	r, err := OpenReceiver(fdir)
	if err != nil {
		t.Fatal(err)
	}
	// Drop the first batch on the floor: the stream must recover.
	pos, err := r.Pos()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.ShipDelta(nil, pos, 512); err != nil {
		t.Fatal(err)
	}
	rounds := syncFollower(t, l, r, 512)
	if rounds < 2 {
		t.Fatalf("a 512-byte budget converged in %d rounds; budget not honored", rounds)
	}

	// A snapshot commit mid-stream: the follower crosses it too.
	gen := l.NextGen()
	if err := l.Rotate(0, gen); err != nil {
		t.Fatal(err)
	}
	st := &State{Boundary: 300, StreamTime: 299, Feed: dist.FeedState{Next: 300}}
	if err := l.Snapshot(st, gen); err != nil {
		t.Fatal(err)
	}
	if err := appendOne(l, 0, 301, 2, 1); err != nil {
		t.Fatal(err)
	}
	syncFollower(t, l, r, 512)

	// Re-apply an already-applied batch: idempotent by contract.
	frames, err := l.ShipDelta(nil, ShipPos{Gen: l.Manifest().Gen}, 4096)
	if err != nil {
		t.Fatal(err)
	}
	applyFrames(t, r, frames)
	syncFollower(t, l, r, 0)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	requireDirsEqual(t, l.Dir(), fdir)
}

// TestShipFollowerTornTail extends the torn-tail table to the follower:
// a primary whose final segment ends mid-frame (crash before the tail
// was complete) ships that torn tail verbatim, and the follower's
// recovery truncates it exactly as local recovery would — same surviving
// records, same Truncated count.
func TestShipFollowerTornTail(t *testing.T) {
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
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-5); err != nil {
		t.Fatal(err)
	}

	// Reopen without Replay — the dead primary's directory is shipped
	// as-is, torn tail included.
	l2, err := Open(l.Dir(), 1, Options{SyncEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	fdir := t.TempDir()
	r, err := OpenReceiver(fdir)
	if err != nil {
		t.Fatal(err)
	}
	syncFollower(t, l2, r, 0)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	requireDirsEqual(t, l.Dir(), fdir)

	fl, recs := reopenAndReplay(t, fdir, 1)
	if len(recs) != 9 {
		t.Fatalf("follower replayed %d records over the torn tail, want 9", len(recs))
	}
	if st := fl.Stats(); st.Truncated != 1 {
		t.Fatalf("follower Truncated = %d, want 1", st.Truncated)
	}
	// And appending resumes cleanly on the truncated follower copy.
	if err := fl.StartAppending(); err != nil {
		t.Fatal(err)
	}
	if err := appendOne(fl, 0, 99, 2, 1); err != nil {
		t.Fatal(err)
	}
	if err := fl.Commit(); err != nil {
		t.Fatal(err)
	}
	_, recs = reopenAndReplay(t, fdir, 1)
	if len(recs) != 10 || recs[9].T != 99 {
		t.Fatalf("post-promotion append lost on follower: %+v", recs)
	}
}

// TestShipTruncateReconcile pins the shrunken-primary case: when the
// follower's copy of a segment is longer than the primary's (the primary
// recovered and cut a torn tail the follower had already received), the
// primary ships a truncate frame and the follower converges to the
// primary's bytes.
func TestShipTruncateReconcile(t *testing.T) {
	l := openFresh(t, 1, Options{SyncEvery: -1})
	for i := 0; i < 10; i++ {
		if err := appendOne(l, 0, model.Epoch(i), 1, 1); err != nil {
			t.Fatal(err)
		}
	}
	fdir := t.TempDir()
	r, err := OpenReceiver(fdir)
	if err != nil {
		t.Fatal(err)
	}
	syncFollower(t, l, r, 0)

	// The follower raced ahead: give its copy extra bytes the primary
	// never durably had, as if a torn tail shipped and was then cut on
	// the primary by recovery.
	fpath := filepath.Join(fdir, segmentName(0, 1))
	f, err := os.OpenFile(fpath, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{1, 2, 3, 4, 5}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	syncFollower(t, l, r, 0)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	requireDirsEqual(t, l.Dir(), fdir)
}

// TestFenceRoundTrip pins the fencing-epoch file: zero before any write,
// durable and exact after.
func TestFenceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	if got, err := ReadFence(dir); err != nil || got != 0 {
		t.Fatalf("fresh fence = (%d, %v), want (0, nil)", got, err)
	}
	if err := WriteFence(dir, 7); err != nil {
		t.Fatal(err)
	}
	if got, err := ReadFence(dir); err != nil || got != 7 {
		t.Fatalf("fence = (%d, %v), want (7, nil)", got, err)
	}
	if err := WriteFence(dir, 8); err != nil {
		t.Fatal(err)
	}
	if got, err := ReadFence(dir); err != nil || got != 8 {
		t.Fatalf("rewritten fence = (%d, %v), want (8, nil)", got, err)
	}
}
