package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"rfidtrack/internal/dist"
	"rfidtrack/internal/model"
	"rfidtrack/internal/stream"
)

// runRecord frames n readings of site as one run record; seed varies them.
func runRecord(site, n, seed int) []byte {
	rs := make([]dist.Reading, n)
	for i := range rs {
		rs[i] = dist.Reading{T: model.Epoch(seed + i/5), ID: model.TagID((seed*7 + i) % 997), Mask: model.Mask(1 + (seed+i)%31)}
	}
	return stream.AppendWALRecord(nil, stream.WALRecord{Kind: stream.WALRun, Site: site, Run: dist.ReadingsToWire(rs)})
}

// fillTo appends site-0 records to seg until it is exactly end bytes long:
// runs while there is room, then departure records (13 and 14 bytes framed)
// for the odd remainder.
func fillTo(t *testing.T, seg []byte, end int) []byte {
	t.Helper()
	for k := 0; ; k++ {
		rec := runRecord(0, 1000, k)
		if len(seg)+len(rec)+200 > end {
			break
		}
		seg = append(seg, rec...)
	}
	rest := end - len(seg)
	if rest < 13*12 {
		t.Fatalf("fillTo: %d bytes left, too few to land exactly", rest)
	}
	long := rest % 13 // 14-byte records; the others are 13
	for i := 0; i < rest/13; i++ {
		obj := model.TagID(i % 100) // a one-byte varint: 13 bytes framed
		if i < long {
			obj = 200 // two bytes: 14
		}
		seg = stream.AppendWALRecord(seg, stream.WALRecord{Kind: stream.WALDepart, Object: obj, To: 1, At: model.Epoch(i % 100)})
	}
	if len(seg) != end {
		t.Fatalf("fillTo landed at %d, want %d", len(seg), end)
	}
	return seg
}

// expand flattens records into per-site readings, a run as its readings.
func expand(recs []stream.WALRecord, sites int) [][]dist.Reading {
	out := make([][]dist.Reading, sites)
	for _, rec := range recs {
		if rec.Kind == stream.WALRun {
			out[rec.Site] = append(out[rec.Site], dist.ReadingsFromWire(rec.Run)...)
		}
	}
	return out
}

// scanWhole is stream.ScanWAL over a whole segment, with the records it
// emits copied out of seg.
func scanWhole(seg []byte) ([]stream.WALRecord, int, error) {
	var recs []stream.WALRecord
	valid, err := stream.ScanWAL(seg, func(rec stream.WALRecord) error {
		rec.Run = bytes.Clone(rec.Run)
		recs = append(recs, rec)
		return nil
	})
	return recs, valid, err
}

// replayDir writes the given site segments (generation 1) into a fresh
// directory and replays it with ReplayRuns, returning the readings each
// site received, the log and the directory.
func replayDir(t *testing.T, segs [][]byte) ([][]dist.Reading, *Log, string) {
	t.Helper()
	dir := t.TempDir()
	l, err := Open(dir, len(segs), Options{SyncEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	for site, seg := range segs {
		if err := os.WriteFile(filepath.Join(dir, segmentName(site, 1)), seg, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var mu sync.Mutex
	got := make([][]dist.Reading, len(segs))
	if err := l.ReplayRuns(func(site int, rs []dist.Reading) error {
		mu.Lock()
		defer mu.Unlock()
		got[site] = append(got[site], rs...)
		return nil
	}, func(rec stream.WALRecord) error {
		if rec.Kind != stream.WALDepart { // fillTo's fillers
			t.Errorf("a site segment emitted %+v", rec)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return got, l, dir
}

// TestReplayCutsAtScanWALOffset walks a site segment across the read
// buffer's boundary: a torn run record that straddles it, a record cut
// inside its frame header across it, a corrupt record across it and one
// before it, with valid ones behind, and an intact log across it.
// ReplayRuns must deliver exactly the readings a whole-file stream.ScanWAL
// finds and truncate the file at exactly the offset ScanWAL reports.
func TestReplayCutsAtScanWALOffset(t *testing.T) {
	tail := func(seg []byte) []byte {
		for k := 0; k < 3; k++ {
			seg = append(seg, runRecord(0, 300, 5000+k)...)
		}
		return seg
	}
	next := runRecord(0, 1000, 4000) // 16 016 bytes
	cases := []struct {
		name string
		seg  func() []byte
	}{
		{"torn run across the boundary", func() []byte {
			seg := append(fillTo(t, nil, scanChunk-100), next...)
			return seg[:scanChunk+50]
		}},
		{"torn frame header across the boundary", func() []byte {
			seg := append(fillTo(t, nil, scanChunk-3), next...)
			return seg[:scanChunk+2]
		}},
		{"corrupt run across the boundary", func() []byte {
			seg := tail(append(fillTo(t, nil, scanChunk-100), next...))
			seg[scanChunk+10] ^= 0xff
			return seg
		}},
		{"corrupt run before the boundary", func() []byte {
			seg := tail(append(fillTo(t, nil, scanChunk/2), next...))
			seg[scanChunk/2+100] ^= 0xff
			return seg
		}},
		{"intact across the boundary", func() []byte {
			return tail(append(fillTo(t, nil, scanChunk-100), next...))
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			seg := tc.seg()
			recs, valid, scanErr := scanWhole(seg)
			got, l, dir := replayDir(t, [][]byte{seg})
			if want := expand(recs, 1); !reflect.DeepEqual(got, want) {
				t.Errorf("replayed %d readings, whole-file scan finds %d", len(got[0]), len(want[0]))
			}
			fi, err := os.Stat(filepath.Join(dir, segmentName(0, 1)))
			if err != nil {
				t.Fatal(err)
			}
			wantTruncated := 0
			if scanErr != nil {
				wantTruncated = 1
			}
			if fi.Size() != int64(valid) || l.Stats().Truncated != wantTruncated {
				t.Errorf("segment is %d bytes after replay, %d truncated; whole-file scan stops at %d (%v)",
					fi.Size(), l.Stats().Truncated, valid, scanErr)
			}
		})
	}
}

// TestReplayRecordLargerThanBuffer logs a migration payload of several MiB
// — larger than the read buffer a segment of its size gets — between two
// small ones, and requires every payload back intact, in order, from both
// walks.
func TestReplayRecordLargerThanBuffer(t *testing.T) {
	l := openFresh(t, 1, Options{SyncEvery: -1})
	payloads := [][]byte{[]byte("before"), make([]byte, scanChunk+scanChunk/2), []byte("after")}
	for i := range payloads[1] {
		payloads[1][i] = byte(i * 31)
	}
	for i, p := range payloads {
		if err := l.AppendMigration(dist.Departure{Object: model.TagID(i), From: 0, To: 1, At: 7}, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.AppendReadings(0, someReadings(100)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	check := func(walk string, recs []stream.WALRecord) {
		t.Helper()
		var got [][]byte
		for _, rec := range recs {
			if rec.Kind == stream.WALMigration {
				got = append(got, rec.Payload)
			}
		}
		if !reflect.DeepEqual(got, payloads) {
			t.Errorf("%s: %d migration payloads back, want the %d logged, intact", walk, len(got), len(payloads))
		}
	}
	l2, err := Open(l.Dir(), 1, Options{SyncEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	var emitted []stream.WALRecord
	readings := 0
	if err := l2.ReplayRuns(func(_ int, rs []dist.Reading) error {
		readings += len(rs)
		return nil
	}, func(rec stream.WALRecord) error {
		emitted = append(emitted, rec)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	check("ReplayRuns", emitted)
	if readings != 100 || l2.Stats().Truncated != 0 {
		t.Errorf("ReplayRuns: %d readings, %d truncated, want 100, 0", readings, l2.Stats().Truncated)
	}
	_, recs := reopenAndReplay(t, l.Dir(), 1)
	check("Replay", recs)
}

// TestReplayTornSiteLeavesOthersComplete tears one site's segment while
// the other sites replay beside it: the torn site loses its last run and
// nothing else, and every other site's readings come back complete and in
// log order.
func TestReplayTornSiteLeavesOthersComplete(t *testing.T) {
	const sites, torn = 4, 2
	segs := make([][]byte, sites)
	for s := range segs {
		for k := 0; k < 40+10*s; k++ {
			segs[s] = append(segs[s], runRecord(s, 500+k, 100*s+k)...)
		}
	}
	want := make([][]dist.Reading, sites)
	for s, seg := range segs {
		recs, _, err := scanWhole(seg)
		if err != nil {
			t.Fatal(err)
		}
		if s == torn {
			recs = recs[:len(recs)-1]
		}
		want[s] = expand(recs, sites)[s]
	}
	intact := len(segs[torn])
	last := stream.WALRunHeaderLen + (500+40+10*torn-1)*stream.FrameRecordLen
	segs[torn] = segs[torn][:intact-last/2]

	got, l, dir := replayDir(t, segs)
	for s := range want {
		if !reflect.DeepEqual(got[s], want[s]) {
			t.Errorf("site %d: replayed %d readings, want %d in log order", s, len(got[s]), len(want[s]))
		}
	}
	fi, err := os.Stat(filepath.Join(dir, segmentName(torn, 1)))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != int64(intact-last) || l.Stats().Truncated != 1 {
		t.Errorf("torn segment is %d bytes after replay, %d truncated; want %d, 1", fi.Size(), l.Stats().Truncated, intact-last)
	}
}
