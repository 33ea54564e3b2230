package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"rfidtrack/internal/dist"
	"rfidtrack/internal/model"
	"rfidtrack/internal/stream"
)

// TestParseSegmentName pins the segment namespace: a file is a segment only
// under a name segmentName writes. A stray copy or a hand-made look-alike
// must not be replayed, shipped or retired as if the log had written it.
func TestParseSegmentName(t *testing.T) {
	for _, tc := range []struct {
		name    string
		id, gen int
		ok      bool
	}{
		{"site-0.000001.wal", 0, 1, true},
		{"site-3.000001.wal", 3, 1, true},
		{"site-12.000042.wal", 12, 42, true},
		{"site-7.1234567.wal", 7, 1234567, true},
		{"departures.000001.wal", Departures, 1, true},
		{"migrations.000002.wal", Migrations, 2, true},
		{"alerts.000003.wal", Alerts, 3, true},

		{"site-0.000001 (copy).wal", 0, 0, false},
		{"site-03.000001.wal", 0, 0, false},
		{"site-3x.000001.wal", 0, 0, false},
		{"site-+3.000001.wal", 0, 0, false},
		{"site--1.000001.wal", 0, 0, false},
		{"site--7.000001.wal", 0, 0, false},
		{"site-.000001.wal", 0, 0, false},
		{"site-0.1.wal", 0, 0, false},
		{"site-0.+00001.wal", 0, 0, false},
		{"departures.000001x.wal", 0, 0, false},
		{"departures.000001.wal.tmp", 0, 0, false},
		{"Departures.000001.wal", 0, 0, false},
		{"readings.000001.wal", 0, 0, false},
		{".wal", 0, 0, false},
		{"site-0.wal", 0, 0, false},
		{manifestName, 0, 0, false},
		{deploymentName, 0, 0, false},
		{fenceName, 0, 0, false},
		{snapshotName(2), 0, 0, false},
		{manifestName + ".tmp", 0, 0, false},
	} {
		id, gen, ok := parseSegmentName(tc.name)
		if ok != tc.ok || ok && (id != tc.id || gen != tc.gen) {
			t.Errorf("parseSegmentName(%q) = %d, %d, %v; want %d, %d, %v", tc.name, id, gen, ok, tc.id, tc.gen, tc.ok)
		}
	}
	for _, id := range []int{Alerts, Migrations, Departures, 0, 1, 9, 10, 255} {
		for _, gen := range []int{1, 2, 999999, 1000000} {
			name := segmentName(id, gen)
			if gotID, gotGen, ok := parseSegmentName(name); !ok || gotID != id || gotGen != gen {
				t.Errorf("parseSegmentName(segmentName(%d, %d) = %q) = %d, %d, %v", id, gen, name, gotID, gotGen, ok)
			}
		}
	}
}

// TestParseSnapshotName pins the snapshot namespace the way
// TestParseSegmentName pins the segments': a file is a snapshot only under
// a name snapshotName writes, and that name is its generation's.
func TestParseSnapshotName(t *testing.T) {
	for _, tc := range []struct {
		name string
		gen  int
		ok   bool
	}{
		{snapshotName(0), 0, true},
		{snapshotName(2), 2, true},
		{snapshotName(1<<31 - 1), 1<<31 - 1, true},
		{"snap-0000000300.snap", 300, true}, // an earlier release's boundary name

		{"snap-300.snap", 0, false},
		{"snap-+300.snap", 0, false},
		{"snap--000000001.snap", 0, false},
		{"snap-0000000300 (copy).snap", 0, false},
		{"snap-00000000300.snap", 0, false},
		{"snap-0000000300.snap.tmp", 0, false},
		{"snap-0000000300.snapx", 0, false},
		{"snap-.snap", 0, false},
		{"backup.snap", 0, false},
		{manifestName + ".tmp", 0, false},
		{segmentName(0, 1), 0, false},
	} {
		gen, ok := parseSnapshotName(tc.name)
		if ok != tc.ok || ok && gen != tc.gen {
			t.Errorf("parseSnapshotName(%q) = %d, %v; want %d, %v", tc.name, gen, ok, tc.gen, tc.ok)
		}
	}
}

// TestStraySnapshotFilesIgnored: files named like snapshots that the log
// never wrote neither wedge a follower — whose cursor would report one as a
// snapshot it holds and have shipping resume past its first byte — nor get
// deleted by a snapshot commit on either side, which retires only the
// log's own older snapshots.
func TestStraySnapshotFilesIgnored(t *testing.T) {
	strays := map[string][]byte{
		"snap-300.snap":               []byte("abc"),
		"snap-+300.snap":              []byte("abc"),
		"snap-0000000300 (copy).snap": []byte("abc"),
		"backup.snap":                 []byte("abc"),
	}
	plant := func(dir string) {
		for name, b := range strays {
			if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	l := openFresh(t, 1, Options{SyncEvery: -1})
	defer l.Close()
	fdir := t.TempDir()
	plant(l.Dir())
	plant(fdir)
	r, err := OpenReceiver(fdir)
	if err != nil {
		t.Fatal(err)
	}
	if pos, err := r.Pos(); err != nil || len(pos.Files) != 0 {
		t.Fatalf("follower cursor %+v (err %v): a stray file reads as a shipped file", pos, err)
	}

	var gens []int
	for _, boundary := range []model.Epoch{300, 600} {
		gen := l.NextGen()
		gens = append(gens, gen)
		for _, id := range []int{0, Departures, Migrations, Alerts} {
			if err := l.Rotate(id, gen); err != nil {
				t.Fatal(err)
			}
		}
		if err := appendOne(l, 0, boundary, 1, 1); err != nil {
			t.Fatal(err)
		}
		if err := l.Snapshot(&State{Boundary: boundary, StreamTime: boundary - 1, Feed: dist.FeedState{Next: boundary}}, gen); err != nil {
			t.Fatal(err)
		}
		syncFollower(t, l, r, 0)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	for _, dir := range []string{l.Dir(), fdir} {
		files := dirFiles(t, dir)
		for name, b := range strays {
			if !bytes.Equal(files[name], b) {
				t.Errorf("%s: stray %s was deleted or changed", dir, name)
			}
		}
		if _, ok := files[snapshotName(gens[0])]; ok {
			t.Errorf("%s: the superseded snapshot %s was not retired", dir, snapshotName(gens[0]))
		}
		l2, err := Open(dir, 1, Options{SyncEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		if st, ok, err := l2.LoadState(); err != nil || !ok || st.Boundary != 600 {
			t.Errorf("%s: LoadState = %+v, %v, %v; want the boundary-600 snapshot", dir, st, ok, err)
		}
	}
}

// TestRotateEverySegment rotates each of a one-site log's four segments —
// the site's and the shared Departures, Migrations and Alerts — between two
// appends and commits a snapshot at the new generation: recovery must see
// exactly the post-rotation records of every kind, and a follower shipped
// before and after the rotation must end with the same four files.
func TestRotateEverySegment(t *testing.T) {
	// cut separates the pre-rotation records (epochs below it) from the
	// post-rotation ones.
	const cut = 100
	segs := []struct {
		id     int
		append func(l *Log, at model.Epoch) error
		kind   byte // the records replay hands to emit; 0 for runs
	}{
		{0, func(l *Log, at model.Epoch) error {
			return l.AppendReadings(0, []dist.Reading{{T: at, ID: 1, Mask: 1}, {T: at, ID: 2, Mask: 3}})
		}, 0},
		{Departures, func(l *Log, at model.Epoch) error {
			return l.AppendDeparture(dist.Departure{Object: 5, From: 0, To: 1, At: at})
		}, stream.WALDepart},
		{Migrations, func(l *Log, at model.Epoch) error {
			return l.AppendMigration(dist.Departure{Object: 6, From: 1, To: 0, At: at}, []byte("payload"))
		}, stream.WALMigration},
		{Alerts, func(l *Log, at model.Epoch) error {
			return l.AppendAlert(Alert{Site: 0, Tag: 7, First: at, Last: at + 1, Values: []float64{2.5}, Pattern: "p"})
		}, stream.WALAlert},
	}
	l := openFresh(t, 1, Options{SyncEvery: -1})
	defer l.Close()
	appendAll := func(at model.Epoch) {
		t.Helper()
		for _, sg := range segs {
			for i := range 3 {
				if err := sg.append(l, at+model.Epoch(i)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	appendAll(0)

	// Ship generation 1 first, so the follower has files to retire.
	fdir := t.TempDir()
	r, err := OpenReceiver(fdir)
	if err != nil {
		t.Fatal(err)
	}
	syncFollower(t, l, r, 0)

	gen := l.NextGen()
	for _, sg := range segs {
		if err := l.Rotate(sg.id, gen); err != nil {
			t.Fatalf("Rotate(%d, %d): %v", sg.id, gen, err)
		}
	}
	appendAll(cut)
	st := &State{Boundary: 300, StreamTime: 299, Feed: dist.FeedState{Next: 300}}
	if err := l.Snapshot(st, gen); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}

	_, runs, others := replayRuns(t, l.Dir(), 1)
	var readings []dist.Reading
	for _, run := range runs {
		readings = append(readings, run.rs...)
	}
	if len(readings) != 6 || slices.ContainsFunc(readings, func(r dist.Reading) bool { return r.T < cut }) {
		t.Errorf("site 0 replayed %+v, want the 6 post-rotation readings", readings)
	}
	for _, sg := range segs[1:] {
		n := 0
		for _, rec := range others {
			if rec.Kind != sg.kind {
				continue
			}
			n++
			if at := max(rec.At, rec.T); at < cut {
				t.Errorf("segment %d replayed a pre-rotation record %+v", sg.id, rec)
			}
		}
		if n != 3 {
			t.Errorf("segment %d replayed %d records of kind %d, want 3", sg.id, n, sg.kind)
		}
	}
	if len(others) != 9 {
		t.Errorf("replay emitted %d records, want 9", len(others))
	}

	syncFollower(t, l, r, 0)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	requireDirsEqual(t, l.Dir(), fdir)
	entries, err := os.ReadDir(fdir)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range entries {
		if _, _, ok := parseSegmentName(e.Name()); ok {
			got = append(got, e.Name())
		}
	}
	var want []string
	for _, sg := range segs {
		want = append(want, segmentName(sg.id, gen))
	}
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Errorf("follower segments = %v, want %v", got, want)
	}
}

// TestReceiverRefusesUnknownSegment pins the follower's side of the id
// space: a shipped chunk or truncate for an id below Alerts names no
// segment, and is refused instead of landing in some other segment's file.
func TestReceiverRefusesUnknownSegment(t *testing.T) {
	r, err := OpenReceiver(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for _, kind := range []int{stream.ReplSegment, stream.ReplTruncate} {
		if err := r.Apply(stream.ReplFrame{Kind: kind, Site: Alerts - 1, Gen: 1, Payload: []byte("x")}); err == nil {
			t.Errorf("frame kind %d for segment %d applied", kind, Alerts-1)
		}
	}
	pos, err := r.Pos()
	if err != nil {
		t.Fatal(err)
	}
	if len(pos.Files) != 0 {
		t.Errorf("follower holds files %+v after refusing every frame", pos.Files)
	}
}
