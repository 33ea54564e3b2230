package wal

import (
	"bytes"
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
	frames, err := l.ShipDelta(nil, ShipPos{Gen: l.Manifest().Gen, Boundary: l.Manifest().Boundary,
		HasSnap: true, PendingSnap: -1}, 4096)
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
