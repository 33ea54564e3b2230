package dist

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"

	"rfidtrack/internal/model"
	"rfidtrack/internal/rfinfer"
	"rfidtrack/internal/sim"
)

// feedWorld is a small two-site world with migrations for feed tests.
func feedWorld(t *testing.T) *sim.World {
	t.Helper()
	cfg := sim.DefaultConfig()
	cfg.Warehouses = 2
	cfg.PathLength = 2
	cfg.Epochs = 900
	cfg.ItemsPerCase = 3
	w, err := sim.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// worldIntervals cuts every site's trace with Intervals: batches[s][k] is
// site s's readings of interval k.
func worldIntervals(w *sim.World, interval model.Epoch) [][][]Reading {
	batches := make([][][]Reading, len(w.Sites))
	for s, tr := range w.Sites {
		batches[s] = Intervals(tr, interval)
	}
	return batches
}

// advanceIntervals runs one checkpoint per interval, handing every site the
// feed owns its batch of that interval through AdvanceWith.
func advanceIntervals(f *Feed, batches [][][]Reading) error {
	due := make([][]Reading, len(batches))
	for k := range batches[0] {
		for s := range due {
			due[s] = nil
			if f.owns(s) {
				due[s] = batches[s][k]
			}
		}
		if err := f.AdvanceWith(due); err != nil {
			return err
		}
	}
	return nil
}

// TestFeedMatchesSequential streams a world through the incremental Feed —
// each site's readings shuffled within each Δ-interval, departures
// delivered in-band — and requires the Result to be bit-identical to
// ReplaySequential.
func TestFeedMatchesSequential(t *testing.T) {
	w := feedWorld(t)
	const interval = model.Epoch(300)

	ref := NewCluster(w, MigrateWeights, rfinfer.DefaultConfig())
	want, err := ref.ReplaySequential(interval)
	if err != nil {
		t.Fatal(err)
	}

	c := NewCluster(w, MigrateWeights, rfinfer.DefaultConfig())
	f, err := c.OpenFeed(interval)
	if err != nil {
		t.Fatal(err)
	}

	// Shuffle every site's batch of every interval: arrival order within an
	// interval must not matter.
	batches := worldIntervals(w, interval)
	rng := rand.New(rand.NewPCG(7, 7))
	all := 0
	for _, site := range batches {
		for _, batch := range site {
			rng.Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
			all += len(batch)
		}
	}
	for _, d := range c.Departures() {
		if err := f.Depart(d); err != nil {
			t.Fatal(err)
		}
	}
	if err := advanceIntervals(f, batches); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if got := f.Result(); !reflect.DeepEqual(got, want) {
		t.Errorf("feed Result diverged from sequential reference\n got: %+v\nwant: %+v", got, want)
	}
	if st := f.Stats(); st.Observed != all || st.Late != 0 {
		t.Errorf("feed stats = %+v, want %d observed, 0 late", st, all)
	}
	for id := 0; id < w.NumTags(); id++ {
		if got, want := c.ONSLookup(model.TagID(id)), ref.ONSLookup(model.TagID(id)); got != want {
			t.Errorf("ONS owner of tag %d = %d, want %d", id, got, want)
		}
	}
}

// TestParallelFeedMatchesSequential drives a migration-free four-site
// stream — every checkpoint is pure site-level fan-out, no migration phase
// to serialize on — through feeds on pools of 2, 4 and 8 and through a
// single-worker feed, and requires bit-identical Results.
func TestParallelFeedMatchesSequential(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Warehouses = 4
	cfg.PathLength = 1
	cfg.Epochs = 900
	cfg.ItemsPerCase = 3
	w, err := sim.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const interval = model.Epoch(300)
	batches := worldIntervals(w, interval)

	run := func(workers int) Result {
		t.Helper()
		c := NewCluster(w, MigrateNone, rfinfer.DefaultConfig())
		f, err := c.openFeed(interval, workers)
		if err != nil {
			t.Fatal(err)
		}
		if err := advanceIntervals(f, batches); err != nil {
			t.Fatal(err)
		}
		if st := f.Stats(); st.Checkpoints != int(w.Epochs/interval) || st.Late != 0 {
			t.Errorf("workers=%d: feed stats = %+v, want %d checkpoints, 0 late", workers, st, w.Epochs/interval)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		return f.Result()
	}

	want := run(1)
	if want.ContErr.Total == 0 {
		t.Fatalf("reference scored nothing: %+v", want)
	}
	for _, workers := range []int{2, 4, 8} {
		if got := run(workers); !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: Result diverged from the single-worker feed\n got: %+v\nwant: %+v",
				workers, got, want)
		}
	}
}

// TestFeedLateAndInvalid pins the refusal paths: a late departure is
// counted and dropped without perturbing the pipeline; a batch list of the
// wrong length, a reading outside the checkpoint's interval and invalid
// sites/objects error immediately.
func TestFeedLateAndInvalid(t *testing.T) {
	w := feedWorld(t)
	c := NewCluster(w, MigrateNone, rfinfer.DefaultConfig())
	f, err := c.OpenFeed(300)
	if err != nil {
		t.Fatal(err)
	}
	item := w.Sites[0].Items()[0]
	if err := f.AdvanceWith(make([][]Reading, 5)); err == nil {
		t.Error("5 site batches accepted for 2 sites")
	}
	if err := f.AdvanceWith([][]Reading{{{T: 300, ID: item, Mask: 1}}, nil}); err == nil {
		t.Error("a reading of the next interval accepted")
	}
	if err := f.Depart(Departure{Object: item, From: 0, To: 0, At: 10}); err == nil {
		t.Error("self-departure accepted")
	}
	if err := f.Depart(Departure{Object: item, From: 0, To: 5, At: 10}); err == nil {
		t.Error("out-of-range site accepted")
	}
	if err := f.Depart(Departure{Object: model.TagID(w.NumTags()), From: 0, To: 1, At: 10}); err == nil {
		t.Error("out-of-range object accepted")
	}
	if err := f.AdvanceWith([][]Reading{{{T: 10, ID: item, Mask: 1}}, nil}); err != nil {
		t.Fatal(err)
	}
	// Epoch 10 belongs to the already-completed first checkpoint.
	if err := f.Depart(Departure{Object: item, From: 0, To: 1, At: 10}); err != nil {
		t.Fatal(err)
	}
	st := f.Stats()
	if st.Observed != 1 || st.Checkpoints != 1 || st.LateDepartures != 1 {
		t.Errorf("counters = %+v, want 1 observed reading, 1 checkpoint and 1 late departure", st)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.AdvanceWith(nil); err == nil {
		t.Error("AdvanceWith on closed feed succeeded")
	}
}

// TestSkewedClusterMatchesSequential is the determinism contract under the
// load shape the shared pool exists for: one site holds most of the
// readings, so at every pool size above 1 the workers that finish the quiet
// sites spend the rest of each checkpoint inside the hot site's engine
// phases. Results and alert sets must equal ReplaySequential's through a
// hand-driven feed, through Replay, and through a partitioned feed whose
// first peer owns the hot site alone — and at every pool size above 1 the
// pool must report that helpers actually helped.
func TestSkewedClusterMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	// The paper_dense shape (bench/), shrunk: everything enters at site 0.
	cfg := sim.DefaultConfig()
	cfg.Warehouses = 4
	cfg.PathLength = 2
	cfg.ItemsPerCase = 6
	cfg.Epochs = 1800
	cfg.AnomalyEvery = 120
	w, err := sim.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const interval = model.Epoch(300)
	batches := worldIntervals(w, interval)
	total, hottest := 0, 0
	for _, site := range batches {
		n := 0
		for _, batch := range site {
			n += len(batch)
		}
		total += n
		hottest = max(hottest, n)
	}
	if hottest*10 < total*6 {
		t.Fatalf("hottest site holds %d of %d readings, want at least 60%%", hottest, total)
	}

	newCluster := func(workers int) *Cluster {
		c := NewCluster(w, MigrateWeights, rfinfer.DefaultConfig())
		c.Workers = workers
		c.Query = ColdChainQuery(w, interval)
		return c
	}
	ref := newCluster(1)
	want, err := ref.ReplaySequential(interval)
	if err != nil {
		t.Fatal(err)
	}
	wantAlerts := alertSets(ref)
	alerts := 0
	for _, m := range wantAlerts {
		alerts += len(m)
	}
	if want.Costs.Messages == 0 || alerts == 0 {
		t.Fatalf("reference is vacuous: %d migrations, %d alerted tags", want.Costs.Messages, alerts)
	}
	check := func(t *testing.T, got Result, gotAlerts []map[model.TagID]bool) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("Result diverged from sequential reference\n got: %+v\nwant: %+v", got, want)
		}
		if !reflect.DeepEqual(gotAlerts, wantAlerts) {
			t.Errorf("alert sets diverged\n got: %v\nwant: %v", tagSets(gotAlerts), tagSets(wantAlerts))
		}
	}

	for _, workers := range []int{1, 2, 3, 8} {
		t.Run(fmt.Sprintf("feed/workers=%d", workers), func(t *testing.T) {
			c := newCluster(workers)
			f, err := c.OpenFeed(interval)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range c.Departures() {
				if err := f.Depart(d); err != nil {
					t.Fatal(err)
				}
			}
			if err := advanceIntervals(f, batches); err != nil {
				t.Fatal(err)
			}
			pool := f.PoolStats()
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			check(t, f.Result(), alertSets(c))
			if workers == 1 {
				if pool.HelpedChunks != 0 {
					t.Errorf("pool of 1 had %d chunks helped, want everything inline", pool.HelpedChunks)
				}
				return
			}
			if pool.Workers != workers || pool.HelpedChunks == 0 || pool.BusyNS == 0 {
				t.Errorf("no worker ever helped: %+v", pool)
			}
		})
		t.Run(fmt.Sprintf("replay/workers=%d", workers), func(t *testing.T) {
			c := newCluster(workers)
			got, err := c.Replay(interval)
			if err != nil {
				t.Fatal(err)
			}
			check(t, got, alertSets(c))
		})
	}

	// Peer 0 owns the hot site and nothing else: with no site-level
	// parallelism to be had, its pool works inside one engine.
	t.Run("partitioned/hot-site-alone", func(t *testing.T) {
		sc := scenario{strategy: MigrateWeights, interval: interval, withQuery: true}
		got, gotAlerts := runPartitioned(t, w, sc, []int{0, 1, 1, 1}, 3)
		check(t, got, gotAlerts)
	})
}

// TestFeedDepartRefusesNonItems pins that only items migrate. A case or
// pallet departure accepted into the buffer would move the tag's ONS entry
// at the next checkpoint and then fail its migration on an object no engine
// registered — and fail every checkpoint after it the same way, wedging the
// feed. Depart refuses it up front, as the daemon's ingest does.
func TestFeedDepartRefusesNonItems(t *testing.T) {
	w := feedWorld(t)
	c := NewCluster(w, MigrateWeights, rfinfer.DefaultConfig())
	f, err := c.OpenFeed(300)
	if err != nil {
		t.Fatal(err)
	}
	tried, accepted := 0, 0
	for i, tg := range w.Sites[0].Tags {
		if tg.Kind == model.KindItem {
			continue
		}
		tried++
		if err := f.Depart(Departure{Object: model.TagID(i), From: 0, To: 1, At: 10}); err == nil {
			accepted++
		}
	}
	if tried == 0 || accepted != 0 {
		t.Fatalf("Depart accepted %d of %d case and pallet departures, want none of some", accepted, tried)
	}
	for k := 0; k < 2; k++ {
		if err := f.AdvanceWith(nil); err != nil {
			t.Fatalf("checkpoint %d: %v", k, err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}
