package serve

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"rfidtrack/internal/dist"
	"rfidtrack/internal/model"
	"rfidtrack/internal/rfinfer"
	"rfidtrack/internal/stream"
	"rfidtrack/internal/wal"
)

// normAlert is an alert stripped of its Seq and sorted canonically, so
// alert logs compare across runs whose intra-checkpoint publish order
// differed (the tail fans out over sites at workers > 1).
func normAlerts(alerts []Alert) []Alert {
	out := make([]Alert, len(alerts))
	copy(out, alerts)
	for i := range out {
		out[i].Seq = 0
	}
	slices.SortFunc(out, func(a, b Alert) int {
		if a.First != b.First {
			return int(a.First - b.First)
		}
		if a.Last != b.Last {
			return int(a.Last - b.Last)
		}
		if a.Site != b.Site {
			return a.Site - b.Site
		}
		return int(a.Tag - b.Tag)
	})
	return out
}

// splitAt partitions events at the first event at or past epoch t.
func splitAt(events []Event, t model.Epoch) int {
	for i, ev := range events {
		if ev.Time() >= t {
			return i
		}
	}
	return len(events)
}

// streamEvents pushes events through Ingest in batches.
func streamEvents(t *testing.T, srv *Server, events []Event) {
	t.Helper()
	for i := 0; i < len(events); i += 256 {
		end := min(i+256, len(events))
		if err := srv.Ingest(events[i:end]); err != nil {
			t.Fatal(err)
		}
	}
}

// streamEventsBin pushes the same stream through the binary wire protocol:
// readings travel as batch frames with one section per site, departures
// (which have no binary encoding) through Ingest. Frames never span an
// interval boundary, so the per-site regrouping can never make a reading
// late: no checkpoint fires while a frame's interval is still being fed.
func streamEventsBin(t *testing.T, srv *Server, events []Event, interval model.Epoch, sites int) {
	t.Helper()
	var fb stream.FrameBuilder
	bySite := make([][]dist.Reading, sites)
	for i := 0; i < len(events); {
		k := events[i].Time() / interval
		j := i
		for j < len(events) && events[j].Time()/interval == k {
			j++
		}
		run := events[i:j]
		i = j
		for s := range bySite {
			bySite[s] = bySite[s][:0]
		}
		var deps []Event
		for _, ev := range run {
			if ev.Type == TypeDepart {
				deps = append(deps, ev)
				continue
			}
			bySite[ev.Site] = append(bySite[ev.Site], dist.Reading{T: ev.T, ID: ev.Tag, Mask: ev.Mask})
		}
		fb.Reset()
		for s, batch := range bySite {
			if len(batch) == 0 {
				continue
			}
			fb.BeginSection(s)
			for _, rd := range batch {
				fb.Add(rd.T, rd.ID, rd.Mask)
			}
		}
		if fb.Records() > 0 {
			if _, err := srv.IngestFrame(fb.Finish()); err != nil {
				t.Fatal(err)
			}
		}
		if len(deps) > 0 {
			if err := srv.Ingest(deps); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestRecoverMatchesUninterrupted is the durability acceptance bar: stream
// a world into a durable server, hard-stop it mid-interval (no drain, no
// final snapshot — Abort is a power-loss with the WAL flushed), restart
// from the data directory, finish the stream, and the final Result and
// alert log must be reflect.DeepEqual to the uninterrupted sequential
// reference. Exercised at 1 and GOMAXPROCS workers, crashing twice per
// run: once before any periodic snapshot exists (pure WAL replay) and once
// after (snapshot + WAL tail).
func TestRecoverMatchesUninterrupted(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	w := testWorld(t)
	const interval = model.Epoch(300)

	ref := dist.NewCluster(w, dist.MigrateWeights, rfinfer.DefaultConfig())
	ref.Query = exposureQuery(w, interval)
	want, err := ref.ReplaySequential(interval)
	if err != nil {
		t.Fatal(err)
	}
	var wantAlerts []Alert
	for s := range w.Sites {
		for _, m := range ref.SiteQuery(s).Matches() {
			wantAlerts = append(wantAlerts, Alert{
				Site: s, Tag: m.Tag, First: m.First, Last: m.Last,
				Values:  append([]float64(nil), m.Values...),
				Pattern: ref.SiteQuery(s).PatternKey(),
			})
		}
	}
	if len(wantAlerts) == 0 {
		t.Fatal("reference replay raised no alerts; the scenario is too easy")
	}
	events := WorldEvents(w, ref.Departures())
	// Crash points: epoch 350 precedes the first periodic snapshot
	// (SnapshotEvery=2 snapshots first at boundary 600), so the first
	// restart replays the WAL from scratch; epoch 950 follows it, so the
	// second restart loads the snapshot and replays only the tail. Both
	// cut mid-interval.
	crashes := []model.Epoch{350, 950}

	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		dir := t.TempDir()
		cfg := Config{
			Interval:      interval,
			Horizon:       w.Epochs,
			Workers:       workers,
			Query:         exposureQuery(w, interval),
			DataDir:       dir,
			SyncEvery:     -1, // Abort commits; the timer would only add noise
			SnapshotEvery: 2,
		}
		newServer := func() *Server {
			c := dist.NewCluster(w, dist.MigrateWeights, rfinfer.DefaultConfig())
			srv, err := New(c, cfg)
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			return srv
		}

		srv := newServer()
		prev := 0
		for _, at := range crashes {
			cut := splitAt(events, at)
			streamEvents(t, srv, events[prev:cut])
			prev = cut
			if err := srv.Abort(); err != nil {
				t.Fatalf("workers=%d: abort at %d: %v", workers, at, err)
			}
			srv = newServer()
			if !srv.Healthy() {
				t.Fatalf("workers=%d: recovered server unhealthy at %d", workers, at)
			}
		}
		streamEvents(t, srv, events[prev:])
		if err := srv.Shutdown(context.Background()); err != nil {
			t.Fatalf("workers=%d: shutdown: %v", workers, err)
		}

		if got := srv.Result(); !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: recovered Result diverged from uninterrupted reference\n got: %+v\nwant: %+v",
				workers, got, want)
		}
		got := normAlerts(srv.AlertsSince(0, 0))
		if wantN := normAlerts(wantAlerts); !reflect.DeepEqual(got, wantN) {
			t.Errorf("workers=%d: recovered alert log diverged\n got: %+v\nwant: %+v", workers, got, wantN)
		}
		st := srv.Stats()
		if st.Invalid != 0 || st.Feed.Late != 0 {
			t.Errorf("workers=%d: recovery counted invalid=%d late=%d on a clean stream", workers, st.Invalid, st.Feed.Late)
		}
		if st.Feed.Checkpoints != int(w.Epochs/interval) {
			t.Errorf("workers=%d: %d checkpoints across crashes, want %d", workers, st.Feed.Checkpoints, w.Epochs/interval)
		}
		if st.WAL == nil || st.WAL.Snapshots == 0 {
			t.Errorf("workers=%d: no durable snapshots committed: %+v", workers, st.WAL)
		}
	}
}

// TestRecoverAfterGracefulShutdown pins the instant-restart path: Shutdown
// commits a final snapshot, so a restarted daemon resumes with an empty
// WAL tail and the exact drained state — and keeps accepting new stream
// time past the old horizon... which a fresh Horizon permits.
func TestRecoverAfterGracefulShutdown(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	w := testWorld(t)
	const interval = model.Epoch(300)
	dir := t.TempDir()
	cfg := Config{Interval: interval, Horizon: w.Epochs, DataDir: dir, SyncEvery: -1}

	c := dist.NewCluster(w, dist.MigrateWeights, rfinfer.DefaultConfig())
	srv, err := New(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	events := WorldEvents(w, c.Departures())
	streamEvents(t, srv, events)
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := srv.Result()

	c2 := dist.NewCluster(w, dist.MigrateWeights, rfinfer.DefaultConfig())
	srv2, err := New(c2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st := srv2.Stats(); st.WAL == nil || st.WAL.Replayed != 0 {
		t.Errorf("graceful restart replayed %v records, want 0 (snapshot covers everything)", st.WAL)
	}
	if err := srv2.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := srv2.Result(); !reflect.DeepEqual(got, want) {
		t.Errorf("restarted Result diverged\n got: %+v\nwant: %+v", got, want)
	}
}

// TestRecoverForgottenMatchesSequential pins that a restart keeps the source
// side of a migration a move: snapshot once departures have migrated (so
// the snapshot holds forgotten records at their sources), crash, restart
// over the directory, finish the stream, and every site engine's final
// containment relation — each decision, not only the error counts — must
// equal ReplaySequential's, as must the Result.
func TestRecoverForgottenMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	w := testWorld(t)
	const interval = model.Epoch(300)
	ref := dist.NewCluster(w, dist.MigrateWeights, rfinfer.DefaultConfig())
	want, err := ref.ReplaySequential(interval)
	if err != nil {
		t.Fatal(err)
	}
	deps := ref.Departures()
	if len(deps) == 0 {
		t.Fatal("world has no departures")
	}
	// Cut mid-interval one interval past the first departure's checkpoint,
	// which has then run.
	firstCkpt := (deps[0].At/interval + 1) * interval
	cutAt := firstCkpt + interval + interval/2
	events := WorldEvents(w, deps)

	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		cfg := Config{Interval: interval, Horizon: w.Epochs, Workers: workers, DataDir: t.TempDir(),
			SyncEvery: -1, SnapshotEvery: -1}
		var c *dist.Cluster
		newServer := func() *Server {
			c = dist.NewCluster(w, dist.MigrateWeights, rfinfer.DefaultConfig())
			srv, err := New(c, cfg)
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			return srv
		}
		srv := newServer()
		cut := splitAt(events, cutAt)
		streamEvents(t, srv, events[:cut])
		if n := srv.Stats().Feed.Checkpoints; n < int(firstCkpt/interval) {
			t.Fatalf("workers=%d: %d checkpoints before the snapshot, want the departure checkpoint %d run",
				workers, n, firstCkpt/interval)
		}
		if _, err := srv.SnapshotNow(); err != nil {
			t.Fatalf("workers=%d: snapshot: %v", workers, err)
		}
		if err := srv.Abort(); err != nil {
			t.Fatalf("workers=%d: abort: %v", workers, err)
		}
		srv = newServer()
		streamEvents(t, srv, events[cut:])
		if err := srv.Shutdown(context.Background()); err != nil {
			t.Fatalf("workers=%d: shutdown: %v", workers, err)
		}
		if got := srv.Result(); !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: recovered Result diverged\n got: %+v\nwant: %+v", workers, got, want)
		}
		for s, eng := range c.Engines {
			if got, wantCont := eng.Containment(), ref.Engines[s].Containment(); !reflect.DeepEqual(got, wantCont) {
				t.Errorf("workers=%d: site %d's final containment diverged from ReplaySequential's", workers, s)
			}
		}
	}
}

// TestResultAfterAbort pins that a crash-stopped server still reports its
// result: Abort closes the feed without computing one, and Result reads
// the closed feed — every checkpoint Drain ran, the centralized baseline
// included.
func TestResultAfterAbort(t *testing.T) {
	w := testWorld(t)
	const interval = model.Epoch(300)
	ref := dist.NewCluster(w, dist.MigrateWeights, rfinfer.DefaultConfig())
	want, err := ref.ReplaySequential(interval)
	if err != nil {
		t.Fatal(err)
	}
	c := dist.NewCluster(w, dist.MigrateWeights, rfinfer.DefaultConfig())
	srv, err := New(c, Config{Interval: interval, Horizon: w.Epochs})
	if err != nil {
		t.Fatal(err)
	}
	streamEvents(t, srv, WorldEvents(w, c.Departures()))
	if err := srv.Drain(0); err != nil {
		t.Fatal(err)
	}
	if err := srv.Abort(); err != nil {
		t.Fatal(err)
	}
	if got := srv.Result(); !reflect.DeepEqual(got, want) {
		t.Errorf("Result after Abort diverged\n got: %+v\nwant: %+v", got, want)
	}
}

// TestRecoverIdempotentResend pins the at-least-once contract: a producer
// that re-sends a batch whose acknowledgement was lost (the kill -9
// window) must not perturb the result — reading ingest merges masks,
// departure ingest dedups exact duplicates.
func TestRecoverIdempotentResend(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	w := testWorld(t)
	const interval = model.Epoch(300)

	ref := dist.NewCluster(w, dist.MigrateWeights, rfinfer.DefaultConfig())
	want, err := ref.ReplaySequential(interval)
	if err != nil {
		t.Fatal(err)
	}
	events := WorldEvents(w, ref.Departures())

	c := dist.NewCluster(w, dist.MigrateWeights, rfinfer.DefaultConfig())
	srv, err := New(c, Config{Interval: interval, Horizon: w.Epochs})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(events); i += 256 {
		end := min(i+256, len(events))
		// Every batch is delivered twice, like a client whose ack was lost.
		for pass := 0; pass < 2; pass++ {
			if err := srv.Ingest(events[i:end]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := srv.Result(); !reflect.DeepEqual(got, want) {
		t.Errorf("duplicated delivery perturbed the Result\n got: %+v\nwant: %+v", got, want)
	}
	// A duplicate departure is dropped either by the checkpoint dedup or —
	// when a checkpoint raced between the two sends — by the late rule;
	// on a clean stream both counters would be zero.
	if st := srv.Stats(); st.Feed.DupDepartures+st.Feed.LateDepartures == 0 {
		t.Error("no duplicate departures were dropped; the resend loop is vacuous")
	}
}

// TestRecoverBinaryMatchesUninterrupted repeats the crash/restart
// acceptance bar with the binary wire protocol carrying every reading:
// frames land in the WAL through the bulk append path, the server is
// hard-stopped twice (once on pure WAL replay, once on snapshot + tail),
// and the recovered Result must still be reflect.DeepEqual to the
// uninterrupted sequential reference at 1 and GOMAXPROCS workers.
func TestRecoverBinaryMatchesUninterrupted(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	w := testWorld(t)
	const interval = model.Epoch(300)

	ref := dist.NewCluster(w, dist.MigrateWeights, rfinfer.DefaultConfig())
	want, err := ref.ReplaySequential(interval)
	if err != nil {
		t.Fatal(err)
	}
	events := WorldEvents(w, ref.Departures())
	crashes := []model.Epoch{350, 950} // same cut points as the JSON variant

	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		dir := t.TempDir()
		cfg := Config{
			Interval:      interval,
			Horizon:       w.Epochs,
			Workers:       workers,
			DataDir:       dir,
			SyncEvery:     -1,
			SnapshotEvery: 2,
		}
		newServer := func() *Server {
			c := dist.NewCluster(w, dist.MigrateWeights, rfinfer.DefaultConfig())
			srv, err := New(c, cfg)
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			return srv
		}

		srv := newServer()
		prev := 0
		for _, at := range crashes {
			cut := splitAt(events, at)
			streamEventsBin(t, srv, events[prev:cut], interval, len(w.Sites))
			prev = cut
			if err := srv.Abort(); err != nil {
				t.Fatalf("workers=%d: abort at %d: %v", workers, at, err)
			}
			srv = newServer()
			if !srv.Healthy() {
				t.Fatalf("workers=%d: recovered server unhealthy at %d", workers, at)
			}
		}
		streamEventsBin(t, srv, events[prev:], interval, len(w.Sites))
		if err := srv.Shutdown(context.Background()); err != nil {
			t.Fatalf("workers=%d: shutdown: %v", workers, err)
		}

		if got := srv.Result(); !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: recovered Result diverged from uninterrupted reference\n got: %+v\nwant: %+v",
				workers, got, want)
		}
		st := srv.Stats()
		if st.Invalid != 0 || st.BadFrames != 0 || st.Feed.Late != 0 {
			t.Errorf("workers=%d: binary recovery counted invalid=%d badframes=%d late=%d on a clean stream",
				workers, st.Invalid, st.BadFrames, st.Feed.Late)
		}
		if st.Feed.Checkpoints != int(w.Epochs/interval) {
			t.Errorf("workers=%d: %d checkpoints across crashes, want %d", workers, st.Feed.Checkpoints, w.Epochs/interval)
		}
		if st.WAL == nil || st.WAL.Snapshots == 0 {
			t.Errorf("workers=%d: no durable snapshots committed: %+v", workers, st.WAL)
		}
	}
}

// TestRecoverTornRunRecord cuts a site segment at every byte offset of its
// last run record — the frame header, the run header, every record — and
// restarts over each: recovery must replay everything before that record
// and nothing of it, cut the file back to the record's start (counting the
// truncation), and drain to the Result of a server that was fed exactly the
// surviving readings. A torn run costs that run, never a byte before it.
func TestRecoverTornRunRecord(t *testing.T) {
	w := testWorld(t)
	const interval = model.Epoch(300)
	cfg := Config{Interval: interval, Horizon: w.Epochs, Workers: 1, SyncEvery: -1, SnapshotEvery: -1}
	newServer := func(dir string) *Server {
		c := cfg
		c.DataDir = dir
		srv, err := New(dist.NewCluster(w, dist.MigrateWeights, rfinfer.DefaultConfig()), c)
		if err != nil {
			t.Fatal(err)
		}
		return srv
	}

	// The first interval of the stream, with the last three readings of
	// site 0 held back to be logged as the final run.
	all := WorldEvents(w, dist.WorldDepartures(w))
	all = all[:splitAt(all, interval)]
	var events []Event
	var last []dist.Reading
	for i := len(all) - 1; i >= 0; i-- {
		if ev := all[i]; len(last) < 3 && ev.Type == TypeReading && ev.Site == 0 {
			last = append(last, dist.Reading{T: ev.T, ID: ev.Tag, Mask: ev.Mask})
		} else {
			events = append(events, ev)
		}
	}
	slices.Reverse(events)
	slices.Reverse(last)

	dir := t.TempDir()
	writer := newServer(dir)
	streamEvents(t, writer, events)
	if err := writer.IngestBatch(0, last); err != nil {
		t.Fatal(err)
	}
	if err := writer.Abort(); err != nil {
		t.Fatal(err)
	}
	ref := newServer("")
	streamEvents(t, ref, events)
	if err := ref.Drain(0); err != nil {
		t.Fatal(err)
	}
	want := ref.Result()
	if err := ref.Abort(); err != nil {
		t.Fatal(err)
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	segName := "site-0.000001.wal"
	seg, err := os.ReadFile(filepath.Join(dir, segName))
	if err != nil {
		t.Fatal(err)
	}
	lastLen := stream.WALRunHeaderLen + len(last)*stream.FrameRecordLen
	start := len(seg) - lastLen
	if rec, n, err := stream.DecodeWALRecord(seg[start:]); err != nil || n != lastLen || rec.Kind != stream.WALRun ||
		!reflect.DeepEqual(dist.ReadingsFromWire(rec.Run), last) {
		t.Fatalf("the segment does not end in the held-back run: %+v, %d bytes, err %v", rec, n, err)
	}
	for cut := start; cut < len(seg); cut++ {
		crashed := t.TempDir()
		for _, e := range entries {
			b, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if e.Name() == segName {
				b = b[:cut]
			}
			if err := os.WriteFile(filepath.Join(crashed, e.Name()), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		srv := newServer(crashed)
		st := srv.Stats()
		wantTruncated := 1
		if cut == start {
			wantTruncated = 0 // the segment ends on a record boundary
		}
		if st.WAL.Replayed != len(events) || st.WAL.Truncated != wantTruncated {
			t.Fatalf("cut at %d of %d: replayed %d events, truncated %d segments, want %d, %d",
				cut, len(seg), st.WAL.Replayed, st.WAL.Truncated, len(events), wantTruncated)
		}
		if fi, err := os.Stat(filepath.Join(crashed, segName)); err != nil || fi.Size() != int64(start) {
			t.Fatalf("cut at %d: segment is %d bytes after recovery (err %v), want %d", cut, fi.Size(), err, start)
		}
		if err := srv.Drain(0); err != nil {
			t.Fatal(err)
		}
		if got := srv.Result(); !reflect.DeepEqual(got, want) {
			t.Fatalf("cut at %d: Result diverged from a server fed the surviving prefix\n got: %+v\nwant: %+v", cut, got, want)
		}
		if err := srv.Abort(); err != nil {
			t.Fatal(err)
		}
	}

	// Uncut, the directory recovers the held-back run too.
	srv := newServer(dir)
	if st := srv.Stats(); st.WAL.Replayed != len(events)+len(last) || st.WAL.Truncated != 0 {
		t.Errorf("uncut: replayed %d events, truncated %d, want %d, 0", st.WAL.Replayed, st.WAL.Truncated, len(events)+len(last))
	}
	if err := srv.Abort(); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverBucketsFollowLog pins what the concurrent replay may reorder
// and what it may not: the sites' segments replay at once, but every
// stripe's buckets must hold exactly its site's readings, in the order the
// serial wal.Log.Replay walks them.
func TestRecoverBucketsFollowLog(t *testing.T) {
	w := testWorld(t)
	// Δ spans the horizon, so nothing seals: every replayed reading stays
	// in its bucket.
	cfg := Config{Interval: w.Epochs, Horizon: w.Epochs, SyncEvery: -1, SnapshotEvery: -1, DataDir: t.TempDir()}
	newServer := func() *Server {
		srv, err := New(dist.NewCluster(w, dist.MigrateWeights, rfinfer.DefaultConfig()), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return srv
	}
	srv := newServer()
	// The stream in reversed blocks, so that log order is not epoch order.
	events := WorldEvents(w, dist.WorldDepartures(w))
	for i := 0; i < len(events); i += 1000 {
		block := slices.Clone(events[i:min(i+1000, len(events))])
		slices.Reverse(block)
		if err := srv.Ingest(block); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Abort(); err != nil {
		t.Fatal(err)
	}

	l, err := wal.Open(cfg.DataDir, len(w.Sites), wal.Options{SyncEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]dist.Reading, len(w.Sites))
	if err := l.Replay(func(rec stream.WALRecord) error {
		if rec.Kind == stream.WALReading {
			want[rec.Site] = append(want[rec.Site], dist.Reading{T: rec.T, ID: rec.Tag, Mask: rec.Mask})
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	l.Close()

	srv = newServer()
	defer srv.Abort()
	for site, sh := range srv.shards {
		sh.mu.Lock()
		got := sh.exportBufferedLocked()
		sh.mu.Unlock()
		if len(want[site]) == 0 || !reflect.DeepEqual(got, want[site]) {
			t.Errorf("site %d: buckets hold %d readings, want the %d the log holds, in its order", site, len(got), len(want[site]))
		}
	}
}
