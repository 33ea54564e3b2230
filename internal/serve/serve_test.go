package serve

import (
	"context"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"rfidtrack/internal/dist"
	"rfidtrack/internal/model"
	"rfidtrack/internal/rfinfer"
	"rfidtrack/internal/sim"
	"rfidtrack/internal/stream"
)

// testWorld is a three-site cold-chain-style world with migrations.
func testWorld(t testing.TB) *sim.World {
	t.Helper()
	cfg := sim.DefaultConfig()
	cfg.Warehouses = 3
	cfg.PathLength = 3
	cfg.Epochs = 1200
	cfg.ItemsPerCase = 2
	cfg.RR = 0.7
	w, err := sim.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// exposureQuery attaches the canonical cold-chain exposure query — the
// same construction the shipped daemon and the dist e2e harness use.
func exposureQuery(w *sim.World, interval model.Epoch) *dist.ClusterQuery {
	return dist.ColdChainQuery(w, interval)
}

// alertTagSets groups the distinct alerted tags per site.
func alertTagSets(sites int, alerts []Alert) []map[model.TagID]bool {
	out := make([]map[model.TagID]bool, sites)
	for i := range out {
		out[i] = map[model.TagID]bool{}
	}
	for _, a := range alerts {
		out[a.Site][a.Tag] = true
	}
	return out
}

// TestServerMatchesSequential is the daemon-path determinism contract: a
// world streamed through the Server — readings and departures over the
// sharded ingest front end, checkpoints triggered by stream time — yields
// a Result and per-site alert sets bit-identical to
// Cluster.ReplaySequential, at 1, 4 and GOMAXPROCS workers, fed both by a
// single ordered producer and by racing concurrent producers.
func TestServerMatchesSequential(t *testing.T) {
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
	wantAlerts := make([]map[model.TagID]bool, len(w.Sites))
	totalAlerts := 0
	for s := range w.Sites {
		wantAlerts[s] = ref.SiteQuery(s).AlertedTags()
		totalAlerts += len(ref.SiteQuery(s).Matches())
	}
	if totalAlerts == 0 {
		t.Fatal("reference replay raised no alerts; the scenario is too easy")
	}
	events := WorldEvents(w, ref.Departures())

	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		for _, mode := range []string{"serial", "concurrent"} {
			name := mode
			c := dist.NewCluster(w, dist.MigrateWeights, rfinfer.DefaultConfig())
			srv, err := New(c, Config{
				Interval: interval,
				Horizon:  w.Epochs,
				Workers:  workers,
				Query:    exposureQuery(w, interval),
			})
			if err != nil {
				t.Fatal(err)
			}
			sub := srv.Subscribe()
			var subAlerts []Alert
			var subWG sync.WaitGroup
			subWG.Add(1)
			go func() {
				defer subWG.Done()
				for a := range sub.C {
					subAlerts = append(subAlerts, a)
				}
			}()

			if mode == "serial" {
				for i := 0; i < len(events); i += 256 {
					end := min(i+256, len(events))
					if err := srv.Ingest(events[i:end]); err != nil {
						t.Fatal(err)
					}
				}
			} else {
				feedConcurrently(t, srv, events, interval)
			}
			if err := srv.Shutdown(context.Background()); err != nil {
				t.Fatalf("workers=%d/%s: shutdown: %v", workers, name, err)
			}
			subWG.Wait()

			if got := srv.Result(); !reflect.DeepEqual(got, want) {
				t.Errorf("workers=%d/%s: served Result diverged from sequential reference\n got: %+v\nwant: %+v",
					workers, name, got, want)
			}
			if got := alertTagSets(len(w.Sites), subAlerts); !reflect.DeepEqual(got, wantAlerts) {
				t.Errorf("workers=%d/%s: subscribed alert sets diverged\n got: %v\nwant: %v", workers, name, got, wantAlerts)
			}
			if len(subAlerts) != totalAlerts {
				t.Errorf("workers=%d/%s: subscription delivered %d alerts, reference fired %d",
					workers, name, len(subAlerts), totalAlerts)
			}
			st := srv.Stats()
			if st.Invalid != 0 || st.Feed.Late != 0 {
				t.Errorf("workers=%d/%s: clean stream counted invalid=%d late=%d", workers, name, st.Invalid, st.Feed.Late)
			}
			if st.Feed.Checkpoints != int(w.Epochs/interval) {
				t.Errorf("workers=%d/%s: ran %d checkpoints, want %d", workers, name, st.Feed.Checkpoints, w.Epochs/interval)
			}
			if st.Sched.Advances != st.Feed.Checkpoints || st.Sched.Total <= 0 {
				t.Errorf("workers=%d/%s: scheduler latency accounting missing: %+v", workers, name, st.Sched)
			}
			if err := srv.Ingest(events[:1]); err != ErrClosed {
				t.Errorf("workers=%d/%s: Ingest after Shutdown = %v, want ErrClosed", workers, name, err)
			}
		}
	}
}

// burstyWorld generates a ten-site world and then thins its reading
// stream to the idle-heavy regime incremental Δ-checkpoints exist for:
// in each Δ-interval exactly one site keeps its readings, so ≥90% of
// site-checkpoints observe nothing and should ride the clean-skip path.
// Ground truth (location and containment spans) is left untouched — both
// the reference replay and the server score against the same truth over
// the same thinned stream.
func burstyWorld(t testing.TB, interval model.Epoch) *sim.World {
	t.Helper()
	cfg := sim.DefaultConfig()
	cfg.Warehouses = 10
	cfg.PathLength = 2
	cfg.Epochs = 2400
	cfg.ItemsPerCase = 2
	cfg.RR = 0.7
	w, err := sim.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for s, tr := range w.Sites {
		for i := range tr.Tags {
			tg := &tr.Tags[i]
			kept := tg.Readings[:0]
			for _, rd := range tg.Readings {
				if int(rd.T/interval)%len(w.Sites) == s {
					kept = append(kept, rd)
				}
			}
			tg.Readings = kept
		}
	}
	return w
}

// TestServerMatchesSequentialBursty is TestServerMatchesSequential's
// idle-heavy twin: a ten-site world where each checkpoint interval has
// readings at exactly one site. This is the workload the incremental
// checkpoint engine optimizes — most site-checkpoints must take the
// clean-skip path (watched through Stats.Sched) while the Result stays
// bit-identical to the sequential reference at every worker count, fed
// serially and by racing producers.
func TestServerMatchesSequentialBursty(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	const interval = model.Epoch(300)
	w := burstyWorld(t, interval)

	ref := dist.NewCluster(w, dist.MigrateWeights, rfinfer.DefaultConfig())
	ref.Query = exposureQuery(w, interval)
	want, err := ref.ReplaySequential(interval)
	if err != nil {
		t.Fatal(err)
	}
	wantAlerts := make([]map[model.TagID]bool, len(w.Sites))
	for s := range w.Sites {
		wantAlerts[s] = ref.SiteQuery(s).AlertedTags()
	}
	events := WorldEvents(w, ref.Departures())

	// The site-checkpoints given work: the one site with readings, every
	// migration destination (it imports state) and every migration source
	// (it forgets the object, so the posterior of the container the object
	// left is recomputed). Every other site-checkpoint must ride the
	// clean-skip path, the first checkpoint's included.
	busy := 0
	for k := range int(w.Epochs / interval) {
		sites := map[int]bool{}
		for s, tr := range w.Sites {
			if batches := dist.Intervals(tr, interval); k < len(batches) && len(batches[k]) > 0 {
				sites[s] = true
			}
		}
		for _, d := range ref.Departures() {
			if int(d.At/interval) == k {
				sites[d.From], sites[d.To] = true, true
			}
		}
		busy += len(sites)
	}

	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		for _, mode := range []string{"serial", "concurrent"} {
			c := dist.NewCluster(w, dist.MigrateWeights, rfinfer.DefaultConfig())
			srv, err := New(c, Config{
				Interval: interval,
				Horizon:  w.Epochs,
				Workers:  workers,
				Query:    exposureQuery(w, interval),
			})
			if err != nil {
				t.Fatal(err)
			}
			if mode == "serial" {
				for i := 0; i < len(events); i += 256 {
					end := min(i+256, len(events))
					if err := srv.Ingest(events[i:end]); err != nil {
						t.Fatal(err)
					}
				}
			} else {
				feedConcurrently(t, srv, events, interval)
			}
			if err := srv.Shutdown(context.Background()); err != nil {
				t.Fatalf("workers=%d/%s: shutdown: %v", workers, mode, err)
			}

			if got := srv.Result(); !reflect.DeepEqual(got, want) {
				t.Errorf("workers=%d/%s: bursty Result diverged from sequential reference\n got: %+v\nwant: %+v",
					workers, mode, got, want)
			}
			st := srv.Stats()
			if got := alertTagSets(len(w.Sites), srv.AlertsSince(0, 0)); !reflect.DeepEqual(got, wantAlerts) {
				t.Errorf("workers=%d/%s: alert sets diverged\n got: %v\nwant: %v", workers, mode, got, wantAlerts)
			}
			if st.Invalid != 0 || st.Feed.Late != 0 {
				t.Errorf("workers=%d/%s: clean stream counted invalid=%d late=%d", workers, mode, st.Invalid, st.Feed.Late)
			}
			if st.Feed.Checkpoints != int(w.Epochs/interval) {
				t.Errorf("workers=%d/%s: ran %d checkpoints, want %d", workers, mode, st.Feed.Checkpoints, w.Epochs/interval)
			}
			// The whole point of the workload: the incremental engine must
			// have skipped far more container groups than it recomputed, and
			// only the site-checkpoints given work (active, destination and
			// source sites) may have been dirty.
			if st.Sched.SkippedGroups <= st.Sched.DirtyGroups {
				t.Errorf("workers=%d/%s: idle-heavy run skipped %d groups but recomputed %d — incremental path not engaged",
					workers, mode, st.Sched.SkippedGroups, st.Sched.DirtyGroups)
			}
			if st.Sched.DirtySites > busy {
				t.Errorf("workers=%d/%s: %d dirty site-checkpoints of %d total, want at most the %d active, destination and source ones",
					workers, mode, st.Sched.DirtySites, st.Sched.Advances*len(w.Sites), busy)
			}
		}
	}
}

// feedConcurrently streams the events with 6 racing producers per
// Δ-interval wave: readings split across producers (half Ingest, half
// IngestBatch), departures in-band. Producers rendezvous at interval
// boundaries, so no event can arrive after its checkpoint sealed — which
// is what makes the concurrent schedule reproduce the reference exactly.
func feedConcurrently(t *testing.T, srv *Server, events []Event, interval model.Epoch) {
	t.Helper()
	var maxT model.Epoch
	for _, ev := range events {
		if ev.Time() > maxT {
			maxT = ev.Time()
		}
	}
	numWaves := int(maxT/interval) + 1
	waves := make([][]Event, numWaves)
	for _, ev := range events {
		k := min(int(ev.Time()/interval), numWaves-1)
		waves[k] = append(waves[k], ev)
	}
	const producers = 6
	for k := 0; k < numWaves; k++ {
		wave := waves[k]
		var wg sync.WaitGroup
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				if p%3 == 0 {
					for i := p; i < len(wave); i += producers {
						if err := srv.Ingest(wave[i : i+1]); err != nil {
							t.Errorf("producer %d: %v", p, err)
							return
						}
					}
					return
				}
				// Batch (p%3 == 1) or binary-frame (p%3 == 2) path for this
				// stripe's readings; departures and other events go through
				// Ingest either way, so every drain mixes all three codecs.
				bySite := map[int][]dist.Reading{}
				for i := p; i < len(wave); i += producers {
					ev := wave[i]
					if ev.Type == TypeReading {
						bySite[ev.Site] = append(bySite[ev.Site], dist.Reading{T: ev.T, ID: ev.Tag, Mask: ev.Mask})
						continue
					}
					if err := srv.Ingest(wave[i : i+1]); err != nil {
						t.Errorf("producer %d: %v", p, err)
						return
					}
				}
				if p%3 == 2 {
					var fb stream.FrameBuilder
					fb.Reset()
					for site, batch := range bySite {
						fb.BeginSection(site)
						for _, rd := range batch {
							fb.Add(rd.T, rd.ID, rd.Mask)
						}
					}
					if _, err := srv.IngestFrame(fb.Finish()); err != nil {
						t.Errorf("producer %d: %v", p, err)
					}
					return
				}
				for site, batch := range bySite {
					if err := srv.IngestBatch(site, batch); err != nil {
						t.Errorf("producer %d site %d: %v", p, site, err)
						return
					}
				}
			}(p)
		}
		wg.Wait()
	}
}

// TestServerShutdownNoLoss pins the graceful-shutdown guarantee: readings
// accepted by concurrent producers before Shutdown — still sitting in the
// queue or the feed buffer — are all observed by the final drain. The
// interval exceeds the trace so no checkpoint runs until the drain.
func TestServerShutdownNoLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	w := testWorld(t)
	events := WorldEvents(w, nil)

	c := dist.NewCluster(w, dist.MigrateNone, rfinfer.DefaultConfig())
	srv, err := New(c, Config{Interval: w.Epochs, QueueSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	const producers = 8
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := p; i < len(events); i += producers {
				if err := srv.Ingest(events[i : i+1]); err != nil {
					t.Errorf("producer %d: %v", p, err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := srv.Stats()
	if st.Received != len(events) {
		t.Errorf("received %d events, want %d", st.Received, len(events))
	}
	if st.Feed.Observed != len(events) {
		t.Errorf("observed %d readings after drain, want %d (lost %d)",
			st.Feed.Observed, len(events), len(events)-st.Feed.Observed)
	}
	if st.Feed.Buffered != 0 || st.Feed.Late != 0 || st.Invalid != 0 {
		t.Errorf("post-drain counters: %+v", st)
	}
	if st.Feed.Checkpoints != 1 {
		t.Errorf("drain ran %d checkpoints, want exactly 1", st.Feed.Checkpoints)
	}
	if res := srv.Result(); res.ContErr.Total == 0 {
		t.Errorf("drained result scored nothing: %+v", res)
	}
}

// TestServerRejectsInvalid checks validation: unknown sites, tags, reader
// bits and pallet readings are counted invalid without failing the
// pipeline.
func TestServerRejectsInvalid(t *testing.T) {
	w := testWorld(t)
	var pallet model.TagID = -1
	for i := range w.Sites[0].Tags {
		if w.Sites[0].Tags[i].Kind == model.KindPallet {
			pallet = w.Sites[0].Tags[i].ID
			break
		}
	}
	if pallet < 0 {
		t.Fatal("world has no pallet")
	}
	item := w.Sites[0].Items()[0]
	c := dist.NewCluster(w, dist.MigrateNone, rfinfer.DefaultConfig())
	srv, err := New(c, Config{})
	if err != nil {
		t.Fatal(err)
	}
	bad := []Event{
		Reading(99, 10, item, 1),                                       // unknown site
		Reading(0, 10, model.TagID(w.NumTags()), 1),                    // unknown tag
		Reading(0, 10, pallet, 1),                                      // pallets are not tracked
		Reading(0, 10, item, 0),                                        // empty mask
		Reading(0, 10, item, model.Mask(1)<<63),                        // reader bit out of range
		{Type: "bogus"},                                                // unknown type
		Depart(dist.Departure{Object: pallet, From: 0, To: 1, At: 10}), // non-item departure
		// Far-future epochs must be refused, not allowed to drag the
		// scheduler through millions of empty checkpoints (MaxSkip bound).
		Reading(0, 1<<29, item, 1),
		Depart(dist.Departure{Object: item, From: 0, To: 1, At: 1 << 29}),
	}
	if err := srv.Ingest(bad); err != nil {
		t.Fatal(err)
	}
	if err := srv.Drain(0); err != nil {
		t.Fatal(err)
	}
	st := srv.Stats()
	if st.Invalid != len(bad) {
		t.Errorf("invalid = %d, want %d (last: %s)", st.Invalid, len(bad), st.LastInvalid)
	}
	if !srv.Healthy() {
		t.Error("invalid input marked the pipeline unhealthy")
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestServerWatermark checks the producer-skew grace: with a one-interval
// watermark, a reading just past a checkpoint boundary does not close the
// checkpoint, so a slower producer's readings for the previous interval
// still land in time instead of being dropped late.
func TestServerWatermark(t *testing.T) {
	w := testWorld(t)
	item := w.Sites[0].Items()[0]
	c := dist.NewCluster(w, dist.MigrateNone, rfinfer.DefaultConfig())
	srv, err := New(c, Config{Interval: 300, Watermark: 300})
	if err != nil {
		t.Fatal(err)
	}
	// Fast producer is already into [300, 600); without the watermark this
	// would close checkpoint 300 immediately.
	if err := srv.Ingest([]Event{Reading(0, 310, item, 1)}); err != nil {
		t.Fatal(err)
	}
	if err := srv.Drain(1); err != nil { // queue barrier only: 1 < Next()
		t.Fatal(err)
	}
	if st := srv.Stats(); st.Feed.Checkpoints != 0 {
		t.Fatalf("watermark ignored: %d checkpoints ran at stream time 310", st.Feed.Checkpoints)
	}
	// The slow producer's reading for [0, 300) arrives late in wall time
	// but within the watermark — it must be accepted, not dropped.
	if err := srv.Ingest([]Event{Reading(0, 200, item, 1), Reading(0, 610, item, 1)}); err != nil {
		t.Fatal(err)
	}
	if err := srv.Drain(1); err != nil {
		t.Fatal(err)
	}
	st := srv.Stats()
	if st.Feed.Checkpoints != 1 || st.Feed.Late != 0 {
		t.Errorf("after t=610: checkpoints=%d late=%d, want 1 checkpoint and 0 late", st.Feed.Checkpoints, st.Feed.Late)
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}
