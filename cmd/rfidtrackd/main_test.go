package main

import (
	"context"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"rfidtrack/internal/dist"
	"rfidtrack/internal/model"
	"rfidtrack/internal/rfinfer"
	"rfidtrack/internal/serve"
	"rfidtrack/internal/sim"
	"rfidtrack/internal/stream"
	"rfidtrack/internal/wal"
)

// The fixture under testdata/parent-format is a data directory written by
// the release before reading runs and deployment records (commit b2197d1):
// a MANIFEST, one WAL record per reading, no DEPLOYMENT file. A durable
// server over fixtureDeployment's world (Workers 1, SnapshotEvery -1) was
// fed every event before epoch 300 — fixtureLogged of them — in Ingest calls
// of 100, drained through checkpoint 240 and crash-stopped with Abort. This
// release refuses it; TestParentFormatDirectoryRefused writes the same
// directory in today's format and walks that through a restart instead.
const (
	fixtureInterval = model.Epoch(120)
	fixtureCrash    = model.Epoch(300)
	fixtureLogged   = 887
)

func fixtureDeployment() wal.Deployment {
	cfg := sim.DefaultConfig()
	cfg.Warehouses, cfg.PathLength = 2, 2
	cfg.Epochs = 480
	cfg.InjectEvery = 120
	cfg.CasesPerPallet, cfg.ItemsPerCase = 2, 2
	cfg.Shelves = 4
	cfg.ShelfDwell = 100
	cfg.AnomalyEvery = 60
	cfg.Seed = 3
	return wal.Deployment{Sim: cfg, Interval: fixtureInterval, Strategy: dist.MigrateWeights.String(), Query: true}
}

// fixtureDir copies the fixture into a scratch directory and returns it
// with the fixture's files by name.
func fixtureDir(t *testing.T) (string, map[string][]byte) {
	t.Helper()
	dir := t.TempDir()
	src := filepath.Join("testdata", "parent-format")
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte)
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = b
	}
	return dir, files
}

// start is what main does between parsing its flags and listening.
func start(t *testing.T, dep wal.Deployment, dir string) (*sim.World, *serve.Server) {
	t.Helper()
	world, srv, err := tryStart(dep, dir)
	if err != nil {
		t.Fatal(err)
	}
	return world, srv
}

// tryStart is start returning its error.
func tryStart(dep wal.Deployment, dir string) (*sim.World, *serve.Server, error) {
	world, baseline, err := openWorld(dep, dir, false)
	if err != nil {
		return nil, nil, err
	}
	c := dist.NewCluster(world, dist.MigrateWeights, rfinfer.DefaultConfig())
	c.Baseline = baseline
	srv, err := serve.New(c, serve.Config{Interval: dep.Interval, Horizon: world.Epochs, Workers: 1, DataDir: dir,
		SyncEvery: -1, SnapshotEvery: -1, Query: dist.ColdChainQuery(world, dep.Interval)})
	return world, srv, err
}

func numReadings(w *sim.World) int {
	n := 0
	for _, tr := range w.Sites {
		n += tr.NumReadings()
	}
	return n
}

// generated is the deployment's world with its simulated readings: what
// the readers stream, and what the reference replay and baseline run over.
func generated(t *testing.T, dep wal.Deployment) *sim.World {
	t.Helper()
	w, err := sim.Generate(dep.Sim)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestParentFormatDirectoryRefused: a start over the previous format's
// directory is refused with an error that names the segment, the record
// kind it found and the way out, and leaves every fixture file as it was —
// a refusal, not a corrupt frame to truncate. The same directory written in
// this release's format walks through a restart: the first start leaves a
// deployment record behind and builds only the layout; after a crash the
// restart replays the logged events, and finishing the stream yields
// exactly the uninterrupted reference Result, whose centralized baseline
// then joins the record; the next start trusts the record and serves the
// same Result; and a start with any deployment flag changed is refused by
// name.
func TestParentFormatDirectoryRefused(t *testing.T) {
	dep := fixtureDeployment()
	old, fixture := fixtureDir(t)
	_, _, err := tryStart(dep, old)
	if err == nil {
		t.Fatal("a start over the previous format's directory succeeded")
	}
	for _, s := range []string{"site-0.000001.wal", "kind 1", "SIGTERM", "fresh -data-dir"} {
		if !strings.Contains(err.Error(), s) {
			t.Errorf("refusal %q does not name %q", err, s)
		}
	}
	for name, want := range fixture {
		if got, err := os.ReadFile(filepath.Join(old, name)); err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("fixture file %s changed under the refusal (err %v)", name, err)
		}
	}
	l, err := wal.Open(old, dep.Sim.Warehouses, wal.Options{SyncEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.ReplayRuns(func(int, []dist.Reading) error { return nil }, func(stream.WALRecord) error { return nil }); err == nil {
		t.Error("the fixture's log replayed")
	}
	if st := l.Stats(); st.Truncated != 0 {
		t.Errorf("refusing the fixture truncated %d segments", st.Truncated)
	}

	full := generated(t, dep)
	ref := dist.NewCluster(full, dist.MigrateWeights, rfinfer.DefaultConfig())
	ref.Query = dist.ColdChainQuery(full, dep.Interval)
	want, err := ref.ReplaySequential(dep.Interval)
	if err != nil {
		t.Fatal(err)
	}
	events := serve.WorldEvents(full, ref.Departures())
	rest := 0
	for rest < len(events) && events[rest].Time() < fixtureCrash {
		rest++
	}
	if rest != fixtureLogged {
		t.Fatalf("the world has %d events before epoch %d, the fixture logged %d: not the fixture's world", rest, fixtureCrash, fixtureLogged)
	}

	dir := t.TempDir()
	world, srv := start(t, dep, dir)
	if n := numReadings(world); n != 0 {
		t.Fatalf("first start over an empty directory simulated %d readings", n)
	}
	if rec, err := wal.ReadDeployment(dir); err != nil || rec == nil || rec.Mismatch(dep) != "" || rec.CentralizedBytes != 0 {
		t.Fatalf("after the first start the directory's record is %+v (err %v); want this deployment's, baseline pending", rec, err)
	}
	for i := 0; i < rest; i += 100 {
		if err := srv.Ingest(events[i:min(i+100, rest)]); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Abort(); err != nil {
		t.Fatal(err)
	}

	world, srv = start(t, dep, dir)
	if n := numReadings(world); n != 0 {
		t.Fatalf("a restart over a recorded directory simulated %d readings", n)
	}
	if st := srv.Stats(); st.WAL.Replayed != fixtureLogged || st.WAL.Truncated != 0 || st.Invalid != 0 {
		t.Fatalf("replayed %d events (%d truncated segments, %d invalid), the first start logged %d",
			st.WAL.Replayed, st.WAL.Truncated, st.Invalid, fixtureLogged)
	}
	if err := srv.Ingest(events[rest:]); err != nil {
		t.Fatal(err)
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := srv.Result(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Result over the recovered directory diverged from ReplaySequential\n got: %+v\nwant: %+v", got, want)
	}
	if rec, err := wal.ReadDeployment(dir); err != nil || rec == nil || rec.CentralizedBytes != want.CentralizedBytes {
		t.Fatalf("after the first Result the record is %+v (err %v); want baseline %d", rec, err, want.CentralizedBytes)
	}

	world, srv = start(t, dep, dir)
	if n := numReadings(world); n != 0 {
		t.Errorf("a start over a recorded directory simulated %d readings", n)
	}
	if got := srv.Result(); !reflect.DeepEqual(got, want) {
		t.Errorf("Result after a layout-only restart diverged\n got: %+v\nwant: %+v", got, want)
	}
	if err := srv.Abort(); err != nil {
		t.Fatal(err)
	}

	for field, change := range map[string]func(*wal.Deployment){
		"sim.ItemsPerCase": func(d *wal.Deployment) { d.Sim.ItemsPerCase = 4 },
		"Interval":         func(d *wal.Deployment) { d.Interval = 300 },
	} {
		other := dep
		change(&other)
		if _, _, err := openWorld(other, dir, false); err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("start with %s changed: err = %v, want a refusal naming it", field, err)
		}
	}
}

// TestBaselineAfterCrashBeforeAnyResult covers the restart the benchmark
// times: the first daemon is killed before anyone asked for a Result, so the
// record has no baseline yet. Neither start simulates readings, and the
// first Result generates them once to compute and record the baseline.
func TestBaselineAfterCrashBeforeAnyResult(t *testing.T) {
	dep := fixtureDeployment()
	dir := t.TempDir()
	world, srv := start(t, dep, dir)
	if n := numReadings(world); n != 0 {
		t.Errorf("the first start simulated %d readings", n)
	}
	if err := srv.Abort(); err != nil {
		t.Fatal(err)
	}
	world, srv = start(t, dep, dir)
	if n := numReadings(world); n != 0 {
		t.Errorf("the restart simulated %d readings", n)
	}
	want := dist.CentralizedBaseline(generated(t, dep))
	if got := srv.Result().CentralizedBytes; got != want {
		t.Errorf("CentralizedBytes after a layout-only restart = %d, want %d", got, want)
	}
	if err := srv.Abort(); err != nil {
		t.Fatal(err)
	}
	if rec, err := wal.ReadDeployment(dir); err != nil || rec == nil || rec.CentralizedBytes != want {
		t.Errorf("record after that Result: %+v (err %v), want baseline %d", rec, err, want)
	}

	// -demo streams the simulated readings, so it alone generates in full.
	if w, _, err := openWorld(dep, dir, true); err != nil || numReadings(w) == 0 {
		t.Errorf("-demo over a recorded directory: %d readings, err %v", numReadings(w), err)
	}
}

// TestMemoryOnlyStartIsLayout: a daemon without a data directory builds the
// layout too, resolves the same baseline on its first Result, and writes no
// record anywhere; -demo without a directory still generates in full.
func TestMemoryOnlyStartIsLayout(t *testing.T) {
	dep := fixtureDeployment()
	t.Chdir(t.TempDir()) // a stray record would land in the working directory
	world, baseline, err := openWorld(dep, "", false)
	if err != nil {
		t.Fatal(err)
	}
	if n := numReadings(world); n != 0 {
		t.Errorf("memory-only start simulated %d readings", n)
	}
	c := dist.NewCluster(world, dist.MigrateWeights, rfinfer.DefaultConfig())
	c.Baseline = baseline
	srv, err := serve.New(c, serve.Config{Interval: dep.Interval, Horizon: world.Epochs, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Abort()
	if got, want := srv.Result().CentralizedBytes, dist.CentralizedBaseline(generated(t, dep)); got != want {
		t.Errorf("memory-only CentralizedBytes = %d, want %d", got, want)
	}
	if entries, err := os.ReadDir("."); err != nil || len(entries) != 0 {
		t.Errorf("memory-only start left %d files behind (err %v)", len(entries), err)
	}
	if w, _, err := openWorld(dep, "", true); err != nil || numReadings(w) == 0 {
		t.Errorf("-demo without a data directory: %d readings, err %v", numReadings(w), err)
	}
}

// TestHoldCollector: the start-up's hold turns the collector off, its
// release puts back whatever percent the hold replaced — a GOGC value or
// off — exactly once, and the standby path releases before it listens, so a
// standby that cannot listen has already given the collector back.
func TestHoldCollector(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(100))
	for _, prior := range []int{77, -1} {
		debug.SetGCPercent(prior)
		release := holdCollector()
		if got := debug.SetGCPercent(-1); got != -1 {
			t.Errorf("prior %d: inside the hold the GC percent is %d, want -1", prior, got)
		}
		release()
		if got := debug.SetGCPercent(50); got != prior {
			t.Errorf("after the release the GC percent is %d, want the prior %d", got, prior)
		}
		release()
		if got := debug.SetGCPercent(prior); got != 50 {
			t.Errorf("prior %d: a second release set the GC percent to %d", prior, got)
		}
	}

	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	debug.SetGCPercent(77)
	st, _, err := startStandby(nil, serve.Config{DataDir: t.TempDir()}, "http://127.0.0.1:1", "",
		taken.Addr().String(), 0, time.Second, 0, holdCollector())
	if err == nil {
		st.Close()
		t.Fatal("a standby started on an address already taken")
	}
	if got := debug.SetGCPercent(100); got != 77 {
		t.Errorf("a standby that failed to listen left the GC percent at %d, want 77: it listens before it releases", got)
	}
}
