package wal

import (
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"rfidtrack/internal/dist"
	"rfidtrack/internal/model"
	"rfidtrack/internal/sim"
	"rfidtrack/internal/stream"
)

// someReadings returns n distinct readings.
func someReadings(n int) []dist.Reading {
	rs := make([]dist.Reading, n)
	for i := range rs {
		rs[i] = dist.Reading{T: model.Epoch(i / 3), ID: model.TagID(i % 53), Mask: model.Mask(1 + i%7)}
	}
	return rs
}

// replayedRun is one run as appended, or as ReplayRuns delivered it.
type replayedRun struct {
	site int
	rs   []dist.Reading
}

// replayRuns reopens dir and collects what ReplayRuns delivers: the runs
// site by site (distinct sites replay concurrently, so only each site's
// own order is defined), each site's in the order delivered.
func replayRuns(t *testing.T, dir string, sites int) (*Log, []replayedRun, []stream.WALRecord) {
	t.Helper()
	l, err := Open(dir, sites, Options{SyncEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	bySite := make([][]replayedRun, sites)
	var others []stream.WALRecord
	if err := l.ReplayRuns(func(site int, rs []dist.Reading) error {
		// The view dies with the call: copy.
		r := replayedRun{site, append([]dist.Reading(nil), rs...)}
		mu.Lock()
		defer mu.Unlock()
		bySite[site] = append(bySite[site], r)
		return nil
	}, func(rec stream.WALRecord) error {
		others = append(others, rec)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return l, slices.Concat(bySite...), others
}

// TestRunRecordRoundTrip pins the reading path of the log: a run is one
// record of 16 bytes plus 16 per reading, a run past the record bound is cut
// into several, ReplayRuns hands the runs back as appended, and Replay is
// its expansion — one WALReading per reading — with the counters counting
// readings on both sides and bytes as they lie on disk.
func TestRunRecordRoundTrip(t *testing.T) {
	l := openFresh(t, 2, Options{SyncEvery: -1})
	long := someReadings(stream.MaxWALRunReadings + 5)
	appended := []replayedRun{{0, someReadings(7)}, {1, someReadings(300)}, {0, long}, {0, someReadings(1)}}
	total := 0
	for _, r := range appended {
		if err := l.AppendReadings(r.site, r.rs); err != nil {
			t.Fatal(err)
		}
		total += len(r.rs)
	}
	if err := l.AppendReadings(0, nil); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendDeparture(dist.Departure{Object: 3, From: 0, To: 1, At: 42}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	records := len(appended) + 1 // the long run is two records
	var onDisk int64
	for site := 0; site < 2; site++ {
		fi, err := os.Stat(filepath.Join(l.Dir(), segmentName(site, 1)))
		if err != nil {
			t.Fatal(err)
		}
		onDisk += fi.Size()
	}
	if want := int64(records*stream.WALRunHeaderLen + total*stream.FrameRecordLen); onDisk != want {
		t.Errorf("site segments hold %d bytes, want %d (%d records, %d readings)", onDisk, want, records, total)
	}
	fi, err := os.Stat(filepath.Join(l.Dir(), segmentName(-1, 1)))
	if err != nil {
		t.Fatal(err)
	}
	if st.Appended != total+1 || st.AppendedBytes != onDisk+fi.Size() {
		t.Errorf("Stats = %d events / %d bytes, want %d / %d", st.Appended, st.AppendedBytes, total+1, onDisk+fi.Size())
	}

	l2, runs, others := replayRuns(t, l.Dir(), 2)
	want := []replayedRun{appended[0], {0, long[:stream.MaxWALRunReadings]}, {0, long[stream.MaxWALRunReadings:]}, appended[3], appended[1]}
	if !reflect.DeepEqual(runs, want) {
		t.Errorf("ReplayRuns delivered %d runs, want the %d appended (site 0's, then site 1's)", len(runs), len(want))
	}
	if len(others) != 1 || others[0].Kind != stream.WALDepart {
		t.Errorf("ReplayRuns delivered %+v beside the runs, want the one departure", others)
	}
	if st := l2.Stats(); st.Replayed != total+1 || st.Truncated != 0 {
		t.Errorf("Replayed = %d, Truncated = %d, want %d, 0", st.Replayed, st.Truncated, total+1)
	}

	_, recs := reopenAndReplay(t, l.Dir(), 2)
	if len(recs) != total+1 {
		t.Fatalf("Replay emitted %d records, want one per event: %d", len(recs), total+1)
	}
	i := 1 // recs[0] is the departure: its segment sorts first
	for _, r := range want {
		for _, rd := range r.rs {
			if got := recs[i]; got.Kind != stream.WALReading || got.Site != r.site || got.T != rd.T || got.Tag != rd.ID || got.Mask != rd.Mask {
				t.Fatalf("Replay record %d = %+v, want site %d %+v", i, got, r.site, rd)
			}
			i++
		}
	}
}

// TestOldFormatsRefused pins the one rule for a directory an earlier
// release wrote: a segment holding per-reading records, here behind a run
// record, and a snapshot older than version 4 are
// refused by both walks and by LoadState, with an error that names the
// file, what it found and the way out. The refusal is not a corrupt frame:
// nothing is truncated, and every file stays byte-identical.
func TestOldFormatsRefused(t *testing.T) {
	wayOut := []string{"SIGTERM", "fresh -data-dir"}
	unchanged := func(t *testing.T, path string, want []byte) {
		t.Helper()
		if got, err := os.ReadFile(path); err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("%s changed under the refusal (err %v)", filepath.Base(path), err)
		}
	}
	refused := func(t *testing.T, err error, names ...string) {
		t.Helper()
		if err == nil || errors.Is(err, stream.ErrFrameCorrupt) || errors.Is(err, stream.ErrFramePartial) {
			t.Fatalf("err = %v, want a refusal that is no frame error", err)
		}
		for _, s := range append(names, wayOut...) {
			if !strings.Contains(err.Error(), s) {
				t.Errorf("refusal %q does not name %q", err, s)
			}
		}
	}

	t.Run("per-reading records", func(t *testing.T) {
		dir := t.TempDir()
		l, err := Open(dir, 1, Options{SyncEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		l.Close()
		seg := stream.AppendWALRecord(nil, stream.WALRecord{Kind: stream.WALRun, Site: 0, Run: dist.ReadingsToWire(someReadings(4))})
		for _, r := range someReadings(5) {
			seg = stream.AppendWALRecord(seg, stream.WALRecord{Kind: stream.WALReading, Site: 0, T: r.T, Tag: r.ID, Mask: r.Mask})
		}
		path := filepath.Join(dir, segmentName(0, 1))
		if err := os.WriteFile(path, seg, 0o644); err != nil {
			t.Fatal(err)
		}
		for walk, replay := range map[string]func(*Log) error{
			"ReplayRuns": func(l *Log) error {
				return l.ReplayRuns(func(int, []dist.Reading) error { return nil }, func(stream.WALRecord) error { return nil })
			},
			"Replay": func(l *Log) error { return l.Replay(func(stream.WALRecord) error { return nil }) },
		} {
			l, err := Open(dir, 1, Options{SyncEvery: -1})
			if err != nil {
				t.Fatal(err)
			}
			refused(t, replay(l), segmentName(0, 1), "kind 1", "kind 5")
			if st := l.Stats(); st.Truncated != 0 {
				t.Errorf("%s: Truncated = %d, want 0", walk, st.Truncated)
			}
			unchanged(t, path, seg)
		}
	})

	t.Run("version-3 snapshot", func(t *testing.T) {
		dir := t.TempDir()
		v3, err := hex.DecodeString(snapshotV3)
		if err != nil {
			t.Fatal(err)
		}
		name := snapshotName(600)
		if err := os.WriteFile(filepath.Join(dir, name), v3, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := commitManifest(dir, Manifest{Version: manifestVersion, Gen: 1, Snapshot: name, Boundary: 600}); err != nil {
			t.Fatal(err)
		}
		l, err := Open(dir, 2, Options{SyncEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		_, ok, err := l.LoadState()
		if ok {
			t.Fatal("a version-3 snapshot loaded")
		}
		refused(t, err, name, "version 3", "version 4")
		unchanged(t, filepath.Join(dir, name), v3)
	})
}

// TestDeploymentRecord pins the record's round trip and what Mismatch
// names: each fingerprint field by its own name, the baseline never.
func TestDeploymentRecord(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data") // WriteDeployment creates it
	if d, err := ReadDeployment(dir); d != nil || err != nil {
		t.Fatalf("empty directory: record %+v, err %v", d, err)
	}
	dep := Deployment{Sim: sim.DefaultConfig(), Interval: 300, Strategy: "weights", Query: true}
	if err := WriteDeployment(dir, dep); err != nil {
		t.Fatal(err)
	}
	dep.CentralizedBytes = 898386
	if err := WriteDeployment(dir, dep); err != nil { // the baseline arrives later
		t.Fatal(err)
	}
	got, err := ReadDeployment(dir)
	if err != nil || got == nil || *got != dep {
		t.Fatalf("read back %+v, err %v, want %+v", got, err, dep)
	}
	if _, err := Open(dir, 1, Options{}); err != nil {
		t.Errorf("the record is in a log's way: %v", err)
	}

	same := dep
	same.CentralizedBytes = 0
	if diff := dep.Mismatch(same); diff != "" {
		t.Errorf("differing baselines are a mismatch: %s", diff)
	}
	for field, change := range map[string]func(*Deployment){
		"sim.ItemsPerCase": func(d *Deployment) { d.Sim.ItemsPerCase++ },
		"sim.Seed":         func(d *Deployment) { d.Sim.Seed = 9 },
		"sim.RR":           func(d *Deployment) { d.Sim.RR = 0.5 },
		"sim.Epochs":       func(d *Deployment) { d.Sim.Epochs = 7200 },
		"Interval":         func(d *Deployment) { d.Interval = 60 },
		"Strategy":         func(d *Deployment) { d.Strategy = "none" },
		"Query":            func(d *Deployment) { d.Query = false },
	} {
		other := dep
		change(&other)
		if diff := dep.Mismatch(other); !strings.HasPrefix(diff, field+":") {
			t.Errorf("changed %s: Mismatch = %q", field, diff)
		}
	}

	if err := os.WriteFile(filepath.Join(dir, deploymentName), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadDeployment(dir); err == nil {
		t.Error("a corrupt record read without error")
	}
}
