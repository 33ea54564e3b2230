package serve

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"rfidtrack/internal/dist"
	"rfidtrack/internal/model"
	"rfidtrack/internal/rfinfer"
	"rfidtrack/internal/stream"
)

// TestConcurrentProducersNoLoss races N producers over the sharded ingest
// front end — a third through the mixed-event Ingest path one event at a
// time, a third through the site-addressed IngestBatch fast path, and a
// third through binary batch frames (IngestFrame) — with real
// cross-producer skew inside every interval, live checkpoints, and a
// one-interval watermark. After the final drain every accepted reading
// must be observed: zero loss, zero late, zero invalid, regardless of
// which codec carried it. A deterministic second phase then sends
// known-late readings and requires the Late counter to match exactly.
// `make race` runs this under the race detector, which is what pins the
// sharded path race-clean.
func TestConcurrentProducersNoLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	w := testWorld(t)
	const interval = model.Epoch(300)
	const producers = 8

	events := WorldEvents(w, nil) // readings only: loss accounting is exact
	numWaves := int(w.Epochs/interval) + 1
	waves := make([][]Event, numWaves)
	for _, ev := range events {
		k := min(int(ev.Time()/interval), numWaves-1)
		waves[k] = append(waves[k], ev)
	}

	c := dist.NewCluster(w, dist.MigrateNone, rfinfer.DefaultConfig())
	srv, err := New(c, Config{Interval: interval, Watermark: interval, QueueSize: 512})
	if err != nil {
		t.Fatal(err)
	}

	// Producers rendezvous between waves, so skew never exceeds one
	// interval — which the watermark absorbs. Within a wave, producers
	// interleave freely across all shards: each takes the event stripe
	// i ≡ p (mod producers); p%3 picks the codec — event-by-event Ingest,
	// per-site IngestBatch, or one multi-section binary frame.
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
				buckets := make([][]dist.Reading, len(w.Sites))
				for i := p; i < len(wave); i += producers {
					ev := wave[i]
					buckets[ev.Site] = append(buckets[ev.Site], dist.Reading{T: ev.T, ID: ev.Tag, Mask: ev.Mask})
				}
				if p%3 == 2 {
					var fb stream.FrameBuilder
					fb.Reset()
					for site, batch := range buckets {
						if len(batch) == 0 {
							continue
						}
						fb.BeginSection(site)
						for _, rd := range batch {
							fb.Add(rd.T, rd.ID, rd.Mask)
						}
					}
					if fb.Records() > 0 {
						if _, err := srv.IngestFrame(fb.Finish()); err != nil {
							t.Errorf("producer %d: %v", p, err)
						}
					}
					return
				}
				for site, batch := range buckets {
					if err := srv.IngestBatch(site, batch); err != nil {
						t.Errorf("producer %d site %d: %v", p, site, err)
						return
					}
				}
			}(p)
		}
		wg.Wait()
	}

	if err := srv.Drain(0); err != nil {
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
	if st.Feed.Late != 0 || st.Invalid != 0 || st.Feed.Buffered != 0 {
		t.Errorf("post-drain counters: late=%d invalid=%d buffered=%d, want all zero",
			st.Feed.Late, st.Invalid, st.Feed.Buffered)
	}
	if len(st.Shards) != len(w.Sites) {
		t.Fatalf("stats report %d shards, want %d", len(st.Shards), len(w.Sites))
	}
	perShard := 0
	for _, ss := range st.Shards {
		perShard += ss.Received
	}
	if perShard != len(events) {
		t.Errorf("shard received sum %d, want %d", perShard, len(events))
	}

	// Deterministic late phase: every checkpoint through the horizon has
	// run, so readings at epoch 0 are unambiguously late — raced from N
	// goroutines they must all be counted, never observed, never lost.
	const lateEach = 16
	item := w.Sites[0].Items()[0]
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < lateEach; i++ {
				var err error
				if p%2 == 0 {
					err = srv.Ingest([]Event{Reading(p%len(w.Sites), 0, item, 1)})
				} else {
					err = srv.IngestBatch(p%len(w.Sites), []dist.Reading{{T: 0, ID: item, Mask: 1}})
				}
				if err != nil {
					t.Errorf("late producer %d: %v", p, err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	st = srv.Stats()
	if want := producers * lateEach; st.Feed.Late != want {
		t.Errorf("late = %d, want exactly %d", st.Feed.Late, want)
	}
	if st.Feed.Observed != len(events) {
		t.Errorf("late readings leaked into the feed: observed %d, want %d", st.Feed.Observed, len(events))
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestIngestBatchValidation pins the batch fast path's edges: out-of-range
// sites error (the batch is site-addressed), invalid readings inside a
// batch are counted without poisoning their neighbors, and the HTTP batch
// endpoint shares all of it.
func TestIngestBatchValidation(t *testing.T) {
	w := testWorld(t)
	item := w.Sites[0].Items()[0]
	c := dist.NewCluster(w, dist.MigrateNone, rfinfer.DefaultConfig())
	srv, err := New(c, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.IngestBatch(99, []dist.Reading{{T: 1, ID: item, Mask: 1}}); err == nil {
		t.Error("IngestBatch accepted an unknown site")
	}
	batch := []dist.Reading{
		{T: 10, ID: item, Mask: 1},                     // valid
		{T: 10, ID: model.TagID(w.NumTags()), Mask: 1}, // unknown tag
		{T: 10, ID: item, Mask: 0},                     // empty mask
		{T: 11, ID: item, Mask: 1},                     // valid
	}
	if err := srv.IngestBatch(0, batch); err != nil {
		t.Fatal(err)
	}
	if err := srv.Drain(0); err != nil {
		t.Fatal(err)
	}
	st := srv.Stats()
	if st.Invalid != 2 {
		t.Errorf("invalid = %d, want 2 (last: %s)", st.Invalid, st.LastInvalid)
	}
	if st.Feed.Observed != 2 {
		t.Errorf("observed = %d, want 2", st.Feed.Observed)
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	// A distant Horizon admits far-future epochs past MaxSkip, but the
	// per-shard bucket window stays bounded: a reading millions of
	// intervals ahead is rejected, not allowed to grow a multi-million
	// slot bucket slice under the stripe lock.
	c2 := dist.NewCluster(w, dist.MigrateNone, rfinfer.DefaultConfig())
	srv2, err := New(c2, Config{Interval: 300, Horizon: dist.MaxEpoch - 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv2.IngestBatch(0, []dist.Reading{{T: dist.MaxEpoch - 2, ID: item, Mask: 1}}); err != nil {
		t.Fatal(err)
	}
	if st := srv2.Stats(); st.Invalid != 1 || st.Feed.Buffered != 0 {
		t.Errorf("far-future reading under a distant horizon: invalid=%d buffered=%d, want 1 rejected and 0 buffered (last: %s)",
			st.Invalid, st.Feed.Buffered, st.LastInvalid)
	}
	// Keep the shutdown drain cheap: no stream time was ever published.
	if err := srv2.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestIngestBinValidation pins the binary fast path's edges, mirroring
// TestIngestBatchValidation: records inside a frame pass the same
// per-reading validation as every other codec, a section addressed to an
// unknown site is counted invalid without failing the frame, and a frame
// that fails its structural checks (bad magic, torn length, flipped CRC)
// is refused whole — no record of it may reach a bucket.
func TestIngestBinValidation(t *testing.T) {
	w := testWorld(t)
	item := w.Sites[0].Items()[0]
	c := dist.NewCluster(w, dist.MigrateNone, rfinfer.DefaultConfig())
	srv, err := New(c, Config{})
	if err != nil {
		t.Fatal(err)
	}

	// One frame mixing a valid section, invalid records, and an
	// unknown-site section: the two valid readings land, the rest count.
	var fb stream.FrameBuilder
	fb.Reset()
	fb.BeginSection(0)
	fb.Add(10, item, 1)                     // valid
	fb.Add(10, model.TagID(w.NumTags()), 1) // unknown tag
	fb.Add(10, item, 0)                     // empty mask
	fb.Add(11, item, 1)                     // valid
	fb.BeginSection(99)                     // unknown site
	fb.Add(12, item, 1)
	queued, err := srv.IngestFrame(fb.Finish())
	if err != nil {
		t.Fatal(err)
	}
	if queued != 4 {
		t.Errorf("queued = %d, want 4 (the routable sections' records)", queued)
	}
	if err := srv.Drain(0); err != nil {
		t.Fatal(err)
	}
	st := srv.Stats()
	if st.Invalid != 3 {
		t.Errorf("invalid = %d, want 3 (last: %s)", st.Invalid, st.LastInvalid)
	}
	if st.Feed.Observed != 2 {
		t.Errorf("observed = %d, want 2", st.Feed.Observed)
	}
	if st.BadFrames != 0 {
		t.Errorf("bad frames = %d, want 0 so far", st.BadFrames)
	}

	// Structurally broken frames are refused whole.
	fb.Reset()
	fb.BeginSection(0)
	fb.Add(20, item, 1)
	good := fb.Finish()
	corrupt := append([]byte(nil), good...)
	corrupt[len(corrupt)-1] ^= 0xff // flip the CRC
	torn := append([]byte(nil), good[:len(good)-3]...)
	badMagic := append([]byte(nil), good...)
	badMagic[0] ^= 0xff
	for name, frame := range map[string][]byte{
		"flipped CRC": corrupt, "torn tail": torn, "bad magic": badMagic, "empty": nil,
	} {
		if _, err := srv.IngestFrame(frame); err == nil {
			t.Errorf("%s: frame accepted, want refusal", name)
		}
	}
	st = srv.Stats()
	if st.BadFrames != 4 {
		t.Errorf("bad frames = %d, want 4 (last: %s)", st.BadFrames, st.LastInvalid)
	}
	if st.Feed.Observed != 2 {
		t.Errorf("refused frames leaked records: observed %d, want 2", st.Feed.Observed)
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// ingestTally is the part of Stats the three ingest edges must agree on.
type ingestTally struct {
	Received, Invalid, BadFrames, Observed int
	Late, Buffered                         []int
}

func tallyOf(st Stats) ingestTally {
	tl := ingestTally{Received: st.Received, Invalid: st.Invalid, BadFrames: st.BadFrames, Observed: st.Feed.Observed}
	for _, sh := range st.Shards {
		tl.Late = append(tl.Late, sh.Late)
		tl.Buffered = append(tl.Buffered, sh.Buffered)
	}
	return tl
}

// TestIngestEdgesAgree pushes one dirty stream — a whole world's readings
// and departures in time order, interleaved across sites, with every kind
// of inadmissible reading spliced in — through Ingest, IngestBatch and
// IngestFrame (aligned, and shifted one byte so the section decodes through
// the scratch buffer instead of the zero-copy view) on fresh servers. All
// edges are adapters over one ingest path, so they must leave identical
// counters mid-stream and at the end, and the drained Result must equal
// ReplaySequential of the clean world: nothing dirty got in, nothing clean
// got lost. The later passes shrink QueueSize below the runs' length, so
// that whenever a checkpoint is due a run is admitted in slices of the
// stripe's free room and waits between them. The last leg has no checkpoint
// to wait for — one Δ spans the horizon — and sections hundreds of times the
// queue: they must go in whole, without a single wait.
func TestIngestEdgesAgree(t *testing.T) {
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

	item := w.Sites[0].Items()[0]
	pallet := model.TagID(-1)
	for _, tg := range w.Sites[0].Tags {
		if tg.Kind == model.KindPallet {
			pallet = tg.ID
			break
		}
	}
	if pallet < 0 {
		t.Fatal("world has no pallet tag")
	}
	dirty := [][]Event{
		{Reading(0, 20, model.TagID(w.NumTags()), 1)},                  // unknown tag
		{Reading(0, 20, pallet, 1)},                                    // pallet tag
		{Reading(1, 21, item, 0)},                                      // zero mask
		{Reading(1, 21, item, model.Mask(1)<<len(w.Sites[1].Readers))}, // beyond the site's readers
		{Reading(2, -5, item, 1)},                                      // negative epoch
		{Reading(2, w.Epochs+7, item, 1)},                              // beyond the horizon
		{Reading(99, 22, item, 1), Reading(99, 23, item, 1)},           // unknown site, a run of two
	}
	const unroutable = 2

	// Phase one stops short of the second boundary, so exactly checkpoint
	// 300 runs before the mid-stream tally; phase two opens with a reading
	// that checkpoint has sealed past.
	var phase1, phase2 []Event
	for _, ev := range WorldEvents(w, ref.Departures()) {
		if ev.Time() < interval+interval/2 {
			phase1 = append(phase1, ev)
		} else {
			phase2 = append(phase2, ev)
		}
	}
	var spliced []Event
	step := len(phase1) / (len(dirty) + 1)
	for i, ev := range phase1 {
		if i > 0 && i%step == 0 && i/step <= len(dirty) {
			spliced = append(spliced, dirty[i/step-1]...)
		}
		spliced = append(spliced, ev)
	}
	phase1 = spliced
	phase2 = append([]Event{Reading(0, 10, item, 1)}, phase2...) // late

	// runs cuts events into maximal same-site reading runs and single
	// departures, the granularity the batch and frame edges speak.
	runs := func(evs []Event, reading func(site int, rs []dist.Reading), other func(Event)) {
		var rs []dist.Reading
		site := 0
		flush := func() {
			if len(rs) > 0 {
				reading(site, rs)
				rs = rs[:0]
			}
		}
		for _, ev := range evs {
			if ev.Type != TypeReading {
				flush()
				other(ev)
				continue
			}
			if ev.Site != site {
				flush()
			}
			site = ev.Site
			rs = append(rs, dist.Reading{T: ev.T, ID: ev.Tag, Mask: ev.Mask})
		}
		flush()
	}
	depart := func(t *testing.T, srv *Server) func(Event) {
		return func(ev Event) {
			if err := srv.Ingest([]Event{ev}); err != nil {
				t.Fatal(err)
			}
		}
	}
	frameEdge := func(shift int) func(*testing.T, *Server, []Event) int {
		return func(t *testing.T, srv *Server, evs []Event) int {
			var fb stream.FrameBuilder
			fb.Reset()
			send := func() {
				if fb.Records() == 0 {
					return
				}
				buf := make([]byte, shift, shift+fb.Len())
				buf = append(buf, fb.Finish()...)
				if _, err := srv.IngestFrame(buf[shift:]); err != nil {
					t.Fatal(err)
				}
				fb.Reset()
			}
			runs(evs, func(site int, rs []dist.Reading) {
				fb.BeginSection(site)
				for _, r := range rs {
					fb.Add(r.T, r.ID, r.Mask)
				}
				if fb.Records() >= 64 {
					send()
				}
			}, func(ev Event) {
				send()
				depart(t, srv)(ev)
			})
			send()
			return 0
		}
	}
	// Each edge pushes a slice of the stream and returns how many readings
	// it reported as an error instead of counting them.
	edges := []struct {
		name string
		push func(t *testing.T, srv *Server, evs []Event) (uncounted int)
	}{
		{"Ingest", func(t *testing.T, srv *Server, evs []Event) int {
			for len(evs) > 0 {
				n := min(64, len(evs))
				if err := srv.Ingest(evs[:n]); err != nil {
					t.Fatal(err)
				}
				evs = evs[n:]
			}
			return 0
		}},
		{"IngestBatch", func(t *testing.T, srv *Server, evs []Event) (uncounted int) {
			runs(evs, func(site int, rs []dist.Reading) {
				err := srv.IngestBatch(site, rs)
				if site == 99 && err != nil {
					uncounted += len(rs) // the site-addressed edge fails the call instead
				} else if (site == 99) != (err != nil) {
					t.Fatalf("IngestBatch(site %d) = %v", site, err)
				}
			}, depart(t, srv))
			return uncounted
		}},
		{"IngestFrame", frameEdge(0)},
		{"IngestFrame/shifted", frameEdge(1)},
	}

	for _, queue := range []int{0, 48, 4} {
		var mid, end []ingestTally
		for _, e := range edges {
			c := dist.NewCluster(w, dist.MigrateWeights, rfinfer.DefaultConfig())
			srv, err := New(c, Config{Interval: interval, Horizon: w.Epochs, QueueSize: queue})
			if err != nil {
				t.Fatal(err)
			}
			tally := func(uncounted int) ingestTally {
				tl := tallyOf(srv.Stats())
				tl.Received += uncounted
				tl.Invalid += uncounted
				return tl
			}
			uncounted := e.push(t, srv, phase1)
			if err := srv.Drain(interval); err != nil {
				t.Fatal(err)
			}
			mid = append(mid, tally(uncounted))
			uncounted += e.push(t, srv, phase2)
			if err := srv.Drain(0); err != nil {
				t.Fatal(err)
			}
			end = append(end, tally(uncounted))
			if err := srv.Shutdown(context.Background()); err != nil {
				t.Fatal(err)
			}
			if got := srv.Result(); !reflect.DeepEqual(got, want) {
				t.Errorf("queue=%d %s: drained Result diverged from ReplaySequential\n got: %+v\nwant: %+v", queue, e.name, got, want)
			}
		}
		for i, e := range edges {
			if !reflect.DeepEqual(mid[i], mid[0]) {
				t.Errorf("queue=%d: after checkpoint %d, %s tallied %+v, %s %+v", queue, interval, e.name, mid[i], edges[0].name, mid[0])
			}
			if !reflect.DeepEqual(end[i], end[0]) {
				t.Errorf("queue=%d: at the end, %s tallied %+v, %s %+v", queue, e.name, end[i], edges[0].name, end[0])
			}
		}
		// Every dirty reading was rejected, the late one dropped late, no
		// frame refused, and the mid-stream tally really was mid-stream.
		wantInvalid := unroutable
		for _, d := range dirty[:len(dirty)-1] {
			wantInvalid += len(d)
		}
		if tl := end[0]; tl.Invalid != wantInvalid || tl.BadFrames != 0 || tl.Late[0] != 1 || tl.Late[1]+tl.Late[2] != 0 {
			t.Errorf("queue=%d: final tally %+v, want %d invalid, 0 bad frames, 1 late on site 0", queue, tl, wantInvalid)
		}
		if tl := mid[0]; tl.Buffered[0]+tl.Buffered[1]+tl.Buffered[2] == 0 || tl.Observed == 0 {
			t.Errorf("queue=%d: mid-stream tally %+v, want readings both observed and still buffered", queue, tl)
		}
	}

	// No checkpoint due: each site's whole stream as one run, the dirty
	// readings in front, against a queue of 8.
	whole, err := dist.NewCluster(w, dist.MigrateWeights, rfinfer.DefaultConfig()).ReplaySequential(w.Epochs)
	if err != nil {
		t.Fatal(err)
	}
	var bySite []Event
	for _, d := range dirty {
		bySite = append(bySite, d...)
	}
	var departures []Event
	clean := WorldEvents(w, ref.Departures())
	for site := range w.Sites {
		for _, ev := range clean {
			if ev.Type == TypeReading && ev.Site == site {
				bySite = append(bySite, ev)
			} else if site == 0 && ev.Type != TypeReading {
				departures = append(departures, ev)
			}
		}
	}
	bySite = append(bySite, departures...)
	var tallies []ingestTally
	for _, e := range edges {
		if e.name == "Ingest" {
			// Its gatherer cuts runs at 4096: still hundreds of queues each.
			e.push = func(t *testing.T, srv *Server, evs []Event) int {
				if err := srv.Ingest(evs); err != nil {
					t.Fatal(err)
				}
				return 0
			}
		}
		c := dist.NewCluster(w, dist.MigrateWeights, rfinfer.DefaultConfig())
		srv, err := New(c, Config{Interval: w.Epochs, Horizon: w.Epochs, QueueSize: 8})
		if err != nil {
			t.Fatal(err)
		}
		uncounted := e.push(t, srv, bySite)
		st := srv.Stats()
		tl := tallyOf(st)
		tl.Received += uncounted
		tl.Invalid += uncounted
		tallies = append(tallies, tl)
		for _, sh := range st.Shards {
			if sh.Waits != 0 || sh.Buffered < 100*8 {
				t.Errorf("no checkpoint due, %s: site %d waited %d times with %d readings buffered; want 0 waits and the whole stream", e.name, sh.Site, sh.Waits, sh.Buffered)
			}
		}
		if !reflect.DeepEqual(tl, tallies[0]) {
			t.Errorf("no checkpoint due: %s tallied %+v, %s %+v", e.name, tl, edges[0].name, tallies[0])
		}
		if err := srv.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
		if got := srv.Result(); !reflect.DeepEqual(got, whole) {
			t.Errorf("no checkpoint due, %s: drained Result diverged from ReplaySequential\n got: %+v\nwant: %+v", e.name, got, whole)
		}
	}
}
