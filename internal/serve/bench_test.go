package serve

import (
	"bytes"
	"context"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rfidtrack/internal/dist"
	"rfidtrack/internal/model"
	"rfidtrack/internal/rfinfer"
	"rfidtrack/internal/sim"
	"rfidtrack/internal/stream"
	"rfidtrack/internal/wal"
)

// benchWorld is the 4-site deployment the serve benchmarks run against.
func benchWorld(b *testing.B) *sim.World {
	b.Helper()
	cfg := sim.DefaultConfig()
	cfg.Warehouses = 4
	cfg.PathLength = 2
	cfg.Epochs = 1200
	cfg.ItemsPerCase = 3
	w, err := sim.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return w
}

// BenchmarkIngest measures sustained ingestion into a 4-site cluster:
// validation and interval-bucketing on the producer goroutine, plus the
// periodic checkpoints that drain the buckets — the steady state of a
// deployed daemon, with the readings of each simulated day arriving as
// fast as the server accepts them. One checkpoint runs per world cycle,
// so history truncation keeps memory flat at any b.N; a deep QueueSize
// lets ingestion run ahead while a checkpoint is in flight (the pipelined
// overlap a throughput-tuned deployment would configure). The acceptance
// floor is 860k readings/s — 2x the pre-sharding runtime.
func BenchmarkIngest(b *testing.B) {
	w := benchWorld(b)
	events := WorldEvents(w, nil)
	c := dist.NewCluster(w, dist.MigrateNone, rfinfer.DefaultConfig())
	srv, err := New(c, Config{Interval: w.Epochs, QueueSize: 1 << 17})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Shutdown(context.Background())

	const batchSize = 512
	batch := make([]Event, 0, batchSize)
	var offset model.Epoch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := events[i%len(events)]
		if i%len(events) == 0 && i > 0 {
			offset += w.Epochs // keep stream time monotonic across cycles
		}
		ev.T += offset
		batch = append(batch, ev)
		if len(batch) == batchSize {
			if err := srv.Ingest(batch); err != nil {
				b.Fatal(err)
			}
			batch = batch[:0] // Ingest does not retain the slice
		}
	}
	if len(batch) > 0 {
		if err := srv.Ingest(batch); err != nil {
			b.Fatal(err)
		}
	}
	if err := srv.Drain(1); err != nil { // settle due checkpoints before stopping the clock
		b.Fatal(err)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "readings/s")
	if st := srv.Stats(); st.Invalid != 0 {
		b.Fatalf("bench stream counted %d invalid (last: %s)", st.Invalid, st.LastInvalid)
	}
}

// BenchmarkReadEvents measures the JSON front door's decode alone: one
// canonical 512-event body, as WriteEvents writes it and POST /ingest
// receives it, through ReadEvents per op. Canonical lines take the
// in-place scanner, so allocs/op does not grow with the body.
func BenchmarkReadEvents(b *testing.B) {
	const bodyEvents = 512
	events := WorldEvents(benchWorld(b), nil)[:bodyEvents]
	var body bytes.Buffer
	if err := WriteEvents(&body, events); err != nil {
		b.Fatal(err)
	}
	var rd bytes.Reader
	n := 0
	emit := func(Event) error { n++; return nil }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(body.Bytes())
		if bad, err := ReadEvents(&rd, emit); err != nil || bad != 0 {
			b.Fatalf("ReadEvents: %d bad lines, %v", bad, err)
		}
	}
	b.StopTimer()
	if n != b.N*bodyEvents {
		b.Fatalf("decoded %d events, want %d", n, b.N*bodyEvents)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n), "ns/event")
}

// BenchmarkIngestBatch measures the site-addressed fast path: one lock
// acquisition, one validation loop, zero allocations per batch. Every
// probe epoch stays inside the first (never-closing) interval, so no
// checkpoint ever runs and the number is the pure front-end cost — the
// bound on what one sharded ingest stripe can sustain.
func BenchmarkIngestBatch(b *testing.B) {
	w := benchWorld(b)
	c := dist.NewCluster(w, dist.MigrateNone, rfinfer.DefaultConfig())
	srv, err := New(c, Config{Interval: w.Epochs, QueueSize: 1 << 30})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Shutdown(context.Background())

	const batchSize = 512
	item := w.Sites[0].Items()[0]
	batch := make([]dist.Reading, batchSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += batchSize {
		for j := range batch {
			batch[j] = dist.Reading{T: model.Epoch((i + j) % int(w.Epochs)), ID: item, Mask: 1}
		}
		if err := srv.IngestBatch(0, batch); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "readings/s")
}

// steadyServers hands a benchmark servers on which no checkpoint can come
// due — one Δ spanning the horizon, so every reading stays in the first,
// never-closing interval — and replaces the server (outside the timer) once
// it has taken perServer readings: the number then reflects the steady state
// of a stripe that is drained every Δ-interval, not the ever-worsening growth
// of one bucket fed forever. With durable set each server logs to a fresh
// data directory.
type steadyServers struct {
	b       *testing.B
	w       *sim.World
	queue   int
	durable bool
	srv     *Server
	dir     string // the current server's data directory, when durable
	fill    int
}

const perServer = 1 << 20

// take returns the server for the next n readings.
func (ss *steadyServers) take(n int) *Server {
	if ss.srv == nil || ss.fill >= perServer {
		ss.b.StopTimer()
		ss.stop()
		cfg := Config{Interval: ss.w.Epochs, Horizon: ss.w.Epochs, QueueSize: ss.queue}
		if ss.durable {
			ss.dir = ss.b.TempDir()
			cfg.DataDir = ss.dir
		}
		var err error
		ss.srv, err = New(dist.NewCluster(ss.w, dist.MigrateNone, rfinfer.DefaultConfig()), cfg)
		if err != nil {
			ss.b.Fatal(err)
		}
		ss.fill = 0
		ss.b.StartTimer()
	}
	ss.fill += n
	return ss.srv
}

// stop crash-stops the current server: nothing is owed a checkpoint's time.
func (ss *steadyServers) stop() {
	if ss.srv == nil {
		return
	}
	if st := ss.srv.Stats(); st.Invalid != 0 || st.BadFrames != 0 {
		ss.b.Fatalf("bench stream counted %d invalid, %d bad frames (last: %s)", st.Invalid, st.BadFrames, st.LastInvalid)
	}
	if err := ss.srv.Abort(); err != nil {
		ss.b.Fatal(err)
	}
	os.RemoveAll(ss.dir) // a long run must not fill the disk with spent logs
	ss.srv = nil
}

// BenchmarkIngestBin measures the binary wire fast path: pre-encoded
// batch frames pushed through IngestFrame — structural validation, CRC,
// then the zero-copy section path that reinterprets record bytes as
// readings in place and bulk-appends them bucket-run by bucket-run under
// one stripe lock per section. Frames are built once outside the loop, so
// the number is the pure server-side cost per reading and the loop must
// stay zero-alloc; no checkpoint runs (see steadyServers). section512 is
// the headline (floor: 10M readings/s). bigsection is one 16 384-reading
// section per frame against the default queue of 8 192: a section larger
// than the queue must cost per reading what a small one does — it used to
// fall off the bulk path onto a per-record loop.
func BenchmarkIngestBin(b *testing.B) {
	w := benchWorld(b)
	item := w.Sites[0].Items()[0]
	for _, bc := range []struct {
		name             string
		batchSize, queue int
	}{{"section512", 512, 1 << 30}, {"bigsection", 16384, 8192}} {
		b.Run(bc.name, func(b *testing.B) {
			const numFrames = 8
			frames := make([][]byte, numFrames)
			for f := range frames {
				var fb stream.FrameBuilder
				fb.Reset()
				fb.BeginSection(0)
				for j := 0; j < bc.batchSize; j++ {
					fb.Add(model.Epoch((f*bc.batchSize+j)%int(w.Epochs)), item, 1)
				}
				frames[f] = append([]byte(nil), fb.Finish()...)
			}
			ss := steadyServers{b: b, w: w, queue: bc.queue}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += bc.batchSize {
				if _, err := ss.take(bc.batchSize).IngestFrame(frames[(i/bc.batchSize)%numFrames]); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "readings/s")
			ss.stop()
		})
	}
}

// BenchmarkClientIngestBinEncode measures the client-side cost of
// IngestBin with the HTTP transport factored out: take a pooled encoder,
// encode the batch — one bulk append of its bytes on little-endian
// machines — finish the frame, return the encoder. This is everything a
// producer goroutine pays beyond the socket write, and it must stay
// zero-alloc in steady state.
func BenchmarkClientIngestBinEncode(b *testing.B) {
	var c Client
	const batchSize = 512
	rs := make([]dist.Reading, batchSize)
	for j := range rs {
		rs[j] = dist.Reading{T: model.Epoch(j % 1200), ID: model.TagID(j), Mask: 1}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += batchSize {
		e := c.getEnc()
		e.b.BeginSection(0)
		e.b.AddRecords(dist.ReadingsToWire(rs))
		e.rd.Reset(e.b.Finish())
		c.binEncs.Put(e)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "readings/s")
}

// BenchmarkIngestWAL is the durable JSON-edge front door: the world's
// events in Ingest calls of 512, every accepted run appended to its site's
// write-ahead segment inside the stripe critical section, the group fsync on
// its default 100ms cadence — and nothing else: no checkpoint comes due (see
// steadyServers), so the number is ingest + WAL. The stream wraps around the
// world; a duplicate reading costs what a new one does.
func BenchmarkIngestWAL(b *testing.B) {
	w := benchWorld(b)
	events := WorldEvents(w, nil)
	const batchSize = 512
	ss := steadyServers{b: b, w: w, durable: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += batchSize {
		at := i % len(events)
		batch := events[at:min(at+batchSize, len(events))]
		if err := ss.take(len(batch)).Ingest(batch); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "readings/s")
	ss.stop()
}

// BenchmarkIngestBinWAL is the headline durable-binary number: the world
// streamed as multi-section batch frames of 512 readings (client-side encode
// included in the timed loop, as a real producer pays it), every section
// appended to its site's write-ahead segment as one run record. Like
// BenchmarkIngestWAL it times ingest + WAL only.
func BenchmarkIngestBinWAL(b *testing.B) {
	w := benchWorld(b)
	events := WorldEvents(w, nil)
	const batchSize = 512
	ss := steadyServers{b: b, w: w, durable: true}
	var fb stream.FrameBuilder
	bySite := make([][]dist.Reading, len(w.Sites))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += batchSize {
		at := i % len(events)
		batch := events[at:min(at+batchSize, len(events))]
		for _, ev := range batch {
			bySite[ev.Site] = append(bySite[ev.Site], dist.Reading{T: ev.T, ID: ev.Tag, Mask: ev.Mask})
		}
		fb.Reset()
		for s, rs := range bySite {
			if len(rs) == 0 {
				continue
			}
			fb.BeginSection(s)
			for _, rd := range rs {
				fb.Add(rd.T, rd.ID, rd.Mask)
			}
			bySite[s] = rs[:0]
		}
		if _, err := ss.take(len(batch)).IngestFrame(fb.Finish()); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "readings/s")
	ss.stop()
}

// BenchmarkRecovery measures what a restart pays before it can serve: one
// New over a data directory holding the 4-site world as a long
// un-snapshotted WAL tail — open, replay, re-bucket — and no checkpoint: Δ
// spans the horizon, so nothing is owed and the number is the restore alone
// (a snapshot's restore is timed by bench/'s serve.recover_snapshot_ms).
// Reported as recover-ms.
func BenchmarkRecovery(b *testing.B) {
	w := benchWorld(b)
	cfg := Config{Interval: w.Epochs, Horizon: w.Epochs, DataDir: b.TempDir(), SyncEvery: -1, SnapshotEvery: -1}
	newServer := func() *Server {
		srv, err := New(dist.NewCluster(w, dist.MigrateWeights, rfinfer.DefaultConfig()), cfg)
		if err != nil {
			b.Fatal(err)
		}
		return srv
	}
	srv := newServer()
	events := WorldEvents(w, dist.WorldDepartures(w))
	for i := 0; i < len(events); i += 512 {
		if err := srv.Ingest(events[i:min(i+512, len(events))]); err != nil {
			b.Fatal(err)
		}
	}
	if err := srv.Abort(); err != nil { // crash-stop: the whole stream is WAL tail
		b.Fatal(err)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv := newServer()
		b.StopTimer()
		if st := srv.Stats(); st.WAL.Replayed != len(events) {
			b.Fatalf("replayed %d of %d events", st.WAL.Replayed, len(events))
		}
		// Abort (not Shutdown) so the directory still holds the original
		// crash state for the next iteration.
		if err := srv.Abort(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Milliseconds())/float64(b.N), "recover-ms")
}

// BenchmarkCheckpoint measures scheduler latency: one Δ-interval
// checkpoint — seal, interval ingest, migrations, inference at all 4
// sites, scoring — driven through the public Ingest+Drain path.
func BenchmarkCheckpoint(b *testing.B) {
	w := benchWorld(b)
	const interval = model.Epoch(300)
	refDeps := dist.NewCluster(w, dist.MigrateWeights, rfinfer.DefaultConfig()).Departures()
	events := WorldEvents(w, refDeps)
	numCkpts := int(w.Epochs / interval)
	byCkpt := make([][]Event, numCkpts)
	for _, ev := range events {
		k := int(ev.Time() / interval)
		if k >= numCkpts {
			k = numCkpts - 1
		}
		byCkpt[k] = append(byCkpt[k], ev)
	}

	var srv *Server
	ckpt := numCkpts // force a fresh server on the first iteration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ckpt == numCkpts {
			b.StopTimer()
			if srv != nil {
				srv.Shutdown(context.Background())
			}
			c := dist.NewCluster(w, dist.MigrateWeights, rfinfer.DefaultConfig())
			var err error
			srv, err = New(c, Config{Interval: interval, Horizon: w.Epochs})
			if err != nil {
				b.Fatal(err)
			}
			ckpt = 0
			b.StartTimer()
		}
		if err := srv.Ingest(byCkpt[ckpt]); err != nil {
			b.Fatal(err)
		}
		if err := srv.Drain(model.Epoch(ckpt+1) * interval); err != nil {
			b.Fatal(err)
		}
		ckpt++
	}
	b.StopTimer()
	if srv != nil {
		srv.Shutdown(context.Background())
	}
}

// BenchmarkCheckpointIdle measures scheduler latency under the skew a
// deployed cluster actually sees: each Δ-interval only one of the 4 sites
// receives readings (rotating), so at every checkpoint 3 of 4 sites — and
// between bursts most tag groups at the hot site — are idle. This is the
// incremental Δ-checkpoint's home turf: clean groups carry their
// posteriors, evidence and critical regions forward, idle sites cost
// microseconds, and the workers that finish them help inside the hot site.
// One op is one checkpoint (Ingest + Drain). The acceptance ceiling is
// 10ms/op.
func BenchmarkCheckpointIdle(b *testing.B) {
	w := benchWorld(b)
	const interval = model.Epoch(300)
	events := WorldEvents(w, nil)
	numCkpts := int(w.Epochs / interval)
	byCkpt := make([][]Event, numCkpts)
	for _, ev := range events {
		k := min(int(ev.Time()/interval), numCkpts-1)
		if ev.Site != k%len(w.Sites) {
			continue // this interval, every other site is idle
		}
		byCkpt[k] = append(byCkpt[k], ev)
	}

	var srv *Server
	ckpt := numCkpts // force a fresh server on the first iteration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ckpt == numCkpts {
			b.StopTimer()
			if srv != nil {
				srv.Shutdown(context.Background())
			}
			c := dist.NewCluster(w, dist.MigrateNone, rfinfer.DefaultConfig())
			var err error
			srv, err = New(c, Config{Interval: interval, Horizon: w.Epochs})
			if err != nil {
				b.Fatal(err)
			}
			ckpt = 0
			b.StartTimer()
		}
		if err := srv.Ingest(byCkpt[ckpt]); err != nil {
			b.Fatal(err)
		}
		if err := srv.Drain(model.Epoch(ckpt+1) * interval); err != nil {
			b.Fatal(err)
		}
		ckpt++
	}
	b.StopTimer()
	if srv != nil {
		srv.Shutdown(context.Background())
	}
}

// BenchmarkIngestDuringCheckpoint pins the pipelining contract: while the
// scheduler grinds through Δ-checkpoints, a producer keeps ingesting
// future-interval readings, and its per-batch latency must stay
// independent of checkpoint latency. The pre-sharding runtime parked
// every batch behind the in-flight checkpoint, so its ingest p99 WAS the
// checkpoint latency (tens of milliseconds); the sharded runtime's p99
// stays at microseconds. Reported metrics: ingest-p99-us vs ckpt-max-ms
// (ns/op is meaningless here — the probe throttles itself between timed
// batches so its volume stays bounded).
func BenchmarkIngestDuringCheckpoint(b *testing.B) {
	w := benchWorld(b)
	const interval = model.Epoch(300)
	events := WorldEvents(w, nil)
	numCkpts := int(w.Epochs / interval)
	byCkpt := make([][]Event, numCkpts)
	for _, ev := range events {
		k := min(int(ev.Time()/interval), numCkpts-1)
		byCkpt[k] = append(byCkpt[k], ev)
	}

	c := dist.NewCluster(w, dist.MigrateNone, rfinfer.DefaultConfig())
	// The giant watermark disables the automatic due rule: checkpoints run
	// only when the driver drains a boundary, so the probe's future epochs
	// cannot spin the scheduler ahead of the stream. The deep QueueSize
	// keeps the probe's buckets from engaging backpressure.
	srv, err := New(c, Config{Interval: interval, Watermark: 1 << 29, MaxSkip: 1 << 18, QueueSize: 1 << 21})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Shutdown(context.Background())

	// Driver goroutine: streams the world cycle after cycle, draining each
	// Δ boundary so a checkpoint is in flight for most of the wall time.
	// probeBase trails two cycles ahead of the driver, so probe readings
	// always land in intervals the driver has not sealed yet.
	var probeBase atomic.Int64
	probeBase.Store(int64(2 * w.Epochs))
	stop := make(chan struct{})
	var driver sync.WaitGroup
	driver.Add(1)
	go func() {
		defer driver.Done()
		var offset model.Epoch
		for {
			probeBase.Store(int64(offset + 2*w.Epochs))
			for k := 0; k < numCkpts; k++ {
				select {
				case <-stop:
					return
				default:
				}
				batch := make([]Event, len(byCkpt[k]))
				copy(batch, byCkpt[k])
				for i := range batch {
					batch[i].T += offset
				}
				if srv.Ingest(batch) != nil {
					return
				}
				if srv.Drain(offset+model.Epoch(k+1)*interval) != nil {
					return
				}
			}
			offset += w.Epochs
		}
	}()

	// Probe: timed batches of future readings for site 1, racing the
	// driver's checkpoints.
	const probeSize = 256
	probe := make([]dist.Reading, probeSize)
	item := w.Sites[1].Items()[0]
	lat := make([]time.Duration, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := model.Epoch(probeBase.Load())
		for j := range probe {
			probe[j] = dist.Reading{T: base + model.Epoch(i%int(w.Epochs)), ID: item, Mask: 1}
		}
		start := time.Now()
		if err := srv.IngestBatch(1, probe); err != nil {
			b.Fatal(err)
		}
		lat = append(lat, time.Since(start))
		time.Sleep(200 * time.Microsecond) // bound probe volume, not latency
	}
	b.StopTimer()
	close(stop)
	driver.Wait()

	slices.Sort(lat)
	p99 := lat[len(lat)*99/100]
	st := srv.Stats()
	b.ReportMetric(float64(p99.Microseconds()), "ingest-p99-us")
	b.ReportMetric(float64(st.Sched.Max.Milliseconds()), "ckpt-max-ms")
	if st.Invalid != 0 {
		b.Fatalf("probe stream counted %d invalid (last: %s)", st.Invalid, st.LastInvalid)
	}
	if st.Sched.Advances > 0 && p99 > st.Sched.Max/4 && p99 > 5*time.Millisecond {
		b.Fatalf("ingest p99 %v tracks checkpoint latency (max %v): pipelining broken", p99, st.Sched.Max)
	}
}

// BenchmarkFanout100k measures the delivery tier at consumer scale:
// 100,000 registered subscribers — 99,000 tag-keyed over 10,000 tags (the
// realistic shape: each consumer watches its own few tags), 400 site-keyed,
// 472 pattern-keyed and 128 live match-all consumers draining with real
// goroutines — while one publisher fans alerts out through the sharded
// registry. One op is one published+dispatched alert, with the elapsed
// clock running until every live consumer has drained its last alert.
// Reported: matches/s (subscriber matches routed per second, index plus
// scan) and p99-delivery-ms (publish-to-consumer latency of the live
// pool, catch-up reads included). Queues are deliberately small so the
// overflow -> lagged -> cursor-catch-up path is part of the steady state
// being measured, not an untested corner.
func BenchmarkFanout100k(b *testing.B) {
	const (
		nTagSubs  = 99000
		nTags     = 10000
		nSiteSubs = 400
		nSites    = 4
		nPatSubs  = 472
		nLive     = 128
		queueSize = 16
	)
	patterns := [2]string{"q1", "q2"}
	l := newAlertLog()
	reg := newRegistry(l, queueSize)
	for i := 0; i < nTagSubs; i++ {
		f := MatchAll()
		f.Tag = model.TagID(i % nTags)
		reg.register(f, 0)
	}
	for i := 0; i < nSiteSubs; i++ {
		f := MatchAll()
		f.Site = i % nSites
		reg.register(f, 0)
	}
	for i := 0; i < nPatSubs; i++ {
		f := MatchAll()
		f.Pattern = patterns[i%2]
		reg.register(f, 0)
	}

	// pubTimes[i] is written before alert i is dispatched and read by a
	// live consumer only after delivery (ordered by the tier's locks).
	pubTimes := make([]time.Time, b.N)
	latCh := make(chan []time.Duration, nLive)
	var wg sync.WaitGroup
	for i := 0; i < nLive; i++ {
		sub := reg.register(MatchAll(), 0)
		wg.Add(1)
		go func(sub *subscriber) {
			defer wg.Done()
			var lats []time.Duration
			for {
				batch, done := sub.poll(256, 100*time.Millisecond)
				now := time.Now()
				for _, a := range batch {
					lats = append(lats, now.Sub(pubTimes[a.Seq]))
				}
				if done {
					latCh <- lats
					return
				}
			}
		}(sub)
	}

	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		m := stream.Match{Tag: model.TagID(i % nTags), First: 0, Last: model.Epoch(i % 900)}
		pubTimes[i] = time.Now()
		if a, fresh := l.publish(i%nSites, patterns[i%2], m); fresh {
			reg.dispatch(a)
		}
	}
	l.close()
	reg.wakeAll()
	wg.Wait() // the op isn't done until the live pool has everything
	elapsed := time.Since(start)
	b.StopTimer()

	var all []time.Duration
	for i := 0; i < nLive; i++ {
		all = append(all, <-latCh...)
	}
	ds := reg.stats()
	matches := ds.ScanMatches
	for _, n := range ds.ShardMatches {
		matches += n
	}
	b.ReportMetric(float64(matches)/elapsed.Seconds(), "matches/s")
	b.ReportMetric(float64(percentileDuration(all, 0.99))/1e6, "p99-delivery-ms")
}

// BenchmarkPromotion measures the durable half of standby promotion: over
// a replica directory populated purely by WAL shipping (never written by
// a local server), bump the fence epoch and bring a server up — state
// restore, tail re-ingest and scheduler catch-up included via the Drain
// barrier. This is what stands between a dead primary and a serving
// successor, reported as promote-ms.
func BenchmarkPromotion(b *testing.B) {
	w := benchWorld(b)
	const interval = model.Epoch(300)
	dir := b.TempDir()
	cfg := Config{Interval: interval, Horizon: w.Epochs, DataDir: dir, SyncEvery: -1, SnapshotEvery: 2}

	c := dist.NewCluster(w, dist.MigrateWeights, rfinfer.DefaultConfig())
	srv, err := New(c, cfg)
	if err != nil {
		b.Fatal(err)
	}
	events := WorldEvents(w, c.Departures())
	for i := 0; i < len(events); i += 512 {
		end := min(i+512, len(events))
		if err := srv.Ingest(events[i:end]); err != nil {
			b.Fatal(err)
		}
	}
	if err := srv.Abort(); err != nil { // crash-stop: snapshot + WAL tail on disk
		b.Fatal(err)
	}

	// Ship the crashed primary's directory to the standby replica, exactly
	// as the subscribe loop would have.
	l, err := wal.Open(dir, len(w.Sites), wal.Options{SyncEvery: -1})
	if err != nil {
		b.Fatal(err)
	}
	replica := b.TempDir()
	rcv, err := wal.OpenReceiver(replica)
	if err != nil {
		b.Fatal(err)
	}
	for {
		pos, err := rcv.Pos()
		if err != nil {
			b.Fatal(err)
		}
		frames, err := l.ShipDelta(nil, pos, 0)
		if err != nil {
			b.Fatal(err)
		}
		if len(frames) == 0 {
			break
		}
		for len(frames) > 0 {
			rf, n, err := stream.DecodeReplFrame(frames)
			if err != nil {
				b.Fatal(err)
			}
			if err := rcv.Apply(rf); err != nil {
				b.Fatal(err)
			}
			frames = frames[n:]
		}
	}
	if err := rcv.Close(); err != nil {
		b.Fatal(err)
	}
	if err := l.Close(); err != nil {
		b.Fatal(err)
	}

	// Each iteration must promote the SAME shipped state: disable periodic
	// snapshots so catch-up checkpoints cannot commit fresh snapshots into
	// the shared replica (see BenchmarkRecovery); the growing FENCE epoch
	// is the one sanctioned mutation — promotion always bumps it.
	promCfg := cfg
	promCfg.DataDir = replica
	promCfg.SnapshotEvery = -1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		epoch, err := wal.ReadFence(replica)
		if err != nil {
			b.Fatal(err)
		}
		if err := wal.WriteFence(replica, epoch+1); err != nil {
			b.Fatal(err)
		}
		c := dist.NewCluster(w, dist.MigrateWeights, rfinfer.DefaultConfig())
		srv, err := New(c, promCfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := srv.Drain(1); err != nil { // owed-checkpoint catch-up barrier
			b.Fatal(err)
		}
		b.StopTimer()
		// Abort (not Shutdown) so the replica still holds the shipped state
		// for the next iteration.
		if err := srv.Abort(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Milliseconds())/float64(b.N), "promote-ms")
}
