package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"time"

	"rfidtrack/internal/dist"
	"rfidtrack/internal/model"
	"rfidtrack/internal/serve"
	"rfidtrack/internal/sim"
	"rfidtrack/internal/stream"
	"rfidtrack/internal/wal"
)

// probeReadings bounds the slice of the workload's stream the fixed-cost
// layer probes replay: enough for a steady per-reading figure, small
// enough that a traced run stays inside the driver's time limit.
const probeReadings = 400_000

// probeSpec is the small deployment behind the probes that measure a
// mechanism rather than this workload's volume — snapshot recovery,
// promotion, alert fan-out. Δ=60 gives it twenty checkpoints.
var probeSpec = worldSpec{Sites: 2, Path: 2, Items: 4, Epochs: 1200, Anomaly: 120,
	Interval: 60, Strategy: "weights", Query: true}

// fanoutSubscribers and fanoutPollers size the fan-out probe.
const (
	fanoutSubscribers = 20000
	fanoutPollers     = 2
)

// probeInput is the bounded prefix of the workload's stream in every
// form the probes need.
type probeInput struct {
	world    *sim.World
	frames   [][]byte    // RFB1 frames
	runs     [][]siteRun // the same readings, per frame
	json     [][]byte    // the same events as /ingest bodies of 512
	events   int         // events in json
	readings int
}

func newProbeInput(w workload, in *tracedInput) (*probeInput, error) {
	p := &probeInput{world: in.world}
	var evs []event
	for _, ev := range in.evs {
		if ev.depart != nil {
			continue
		}
		evs = append(evs, ev)
		if len(evs) == probeReadings {
			break
		}
	}
	p.readings = len(evs)
	frame := w.Batch
	if !w.Binary {
		frame = 4096
	}
	fbodies, err := encodeFrames(evs, len(in.world.Sites), frame, 0)
	if err != nil {
		return nil, err
	}
	for i := range fbodies {
		runs, _, err := bodyRuns(&fbodies[i])
		if err != nil {
			return nil, err
		}
		p.frames = append(p.frames, fbodies[i].data)
		p.runs = append(p.runs, runs)
	}
	jbodies, err := encodeJSON(evs[:min(len(evs), probeReadings/4)], 512, 0)
	if err != nil {
		return nil, err
	}
	for _, b := range jbodies {
		p.json = append(p.json, b.data)
		p.events += b.readings
	}
	return p, nil
}

// noCheckpoint is a server configuration under which no checkpoint can
// come due while a probe ingests: one Δ spanning the whole horizon.
func noCheckpoint(world *sim.World, dataDir string, strict bool) serve.Config {
	return serve.Config{Interval: world.Epochs, Horizon: world.Epochs, Workers: 1, DataDir: dataDir, Strict: strict}
}

func perReadingNS(d time.Duration, n int) float64 {
	return float64(d) / float64(max(n, 1))
}

// layerProbes times calls into each package's public functions over the
// probe input, one layer at a time.
func layerProbes(w workload, in *tracedInput, m map[string]float64) error {
	p, err := newProbeInput(w, in)
	if err != nil {
		return err
	}
	sites := len(p.world.Sites)

	// stream: decode, re-encode, wire size.
	var frameBytes int
	t0 := time.Now()
	for _, f := range p.frames {
		frameBytes += len(f)
		if _, err := stream.DecodeBatchFrame(f, func(stream.BatchSection) error { return nil }); err != nil {
			return err
		}
	}
	m["stream.frame_decode_ns_per_reading"] = perReadingNS(time.Since(t0), p.readings)
	m["stream.frame_bytes_per_reading"] = float64(frameBytes) / float64(p.readings)
	var fb stream.FrameBuilder
	t0 = time.Now()
	for _, runs := range p.runs {
		fb.Reset()
		for _, run := range runs {
			fb.BeginSection(run.site)
			for _, r := range run.readings {
				fb.Add(r.T, r.ID, r.Mask)
			}
		}
		fb.Finish()
	}
	m["stream.frame_encode_ns_per_reading"] = perReadingNS(time.Since(t0), p.readings)

	// serve: IngestFrame memory-only, with the WAL, and with Strict acks.
	ingestFrames := func(dataDir string, strict bool, frames [][]byte) (time.Duration, []float64, serve.Stats, error) {
		srv, err := serve.New(w.World.newCluster(p.world), noCheckpoint(p.world, dataDir, strict))
		if err != nil {
			return 0, nil, serve.Stats{}, err
		}
		var each []float64
		t0 := time.Now()
		for _, f := range frames {
			t1 := time.Now()
			if _, err := srv.IngestFrame(f); err != nil {
				return 0, nil, serve.Stats{}, err
			}
			each = append(each, float64(time.Since(t1))/float64(time.Microsecond))
		}
		d := time.Since(t0)
		st := srv.Stats()
		return d, each, st, srv.Abort()
	}
	// Three passes each, median reported: the probes run in a process whose
	// heap the ledger runs just churned, and one pass can land on a
	// collection.
	var mem, durable []float64
	var st serve.Stats
	var crashed string
	for i := 0; i < 3; i++ {
		runtime.GC()
		d, _, _, err := ingestFrames("", false, p.frames)
		if err != nil {
			return err
		}
		mem = append(mem, perReadingNS(d, p.readings))
		if crashed, err = tracked.tempDir("probe-wal"); err != nil {
			return err
		}
		runtime.GC()
		if d, _, st, err = ingestFrames(crashed, false, p.frames); err != nil {
			return err
		}
		durable = append(durable, perReadingNS(d, p.readings))
	}
	m["serve.ingest_frame_ns_per_reading"] = median(mem)
	m["serve.ingest_frame_wal_ns_per_reading"] = median(durable)
	m["wal.bytes_per_reading"] = float64(st.WAL.AppendedBytes) / float64(max(st.WAL.Appended, 1))
	// Strict acknowledgement: frames of 512 readings, each acked after its
	// own fsync.
	var small [][]byte
	for _, run := range p.runs[0] {
		for i := 0; i+512 <= len(run.readings) && len(small) < 200; i += 512 {
			fb.Reset()
			fb.BeginSection(run.site)
			for _, r := range run.readings[i : i+512] {
				fb.Add(r.T, r.ID, r.Mask)
			}
			small = append(small, append([]byte(nil), fb.Finish()...))
		}
	}
	strictDir, err := tracked.tempDir("probe-strict")
	if err != nil {
		return err
	}
	if _, each, _, err := ingestFrames(strictDir, true, small); err != nil {
		return err
	} else {
		m["wal.strict_ack_p50_us"] = percentile(each, 50)
	}

	// serve: the JSON path, decode and ingest apart.
	var events [][]serve.Event
	t0 = time.Now()
	for _, b := range p.json {
		var evs []serve.Event
		if _, err := serve.ReadEvents(bytes.NewReader(b), func(e serve.Event) error {
			evs = append(evs, e)
			return nil
		}); err != nil {
			return err
		}
		events = append(events, evs)
	}
	m["serve.json_decode_ns_per_event"] = perReadingNS(time.Since(t0), p.events)
	srv, err := serve.New(w.World.newCluster(p.world), noCheckpoint(p.world, "", false))
	if err != nil {
		return err
	}
	t0 = time.Now()
	for _, evs := range events {
		if err := srv.Ingest(evs); err != nil {
			return err
		}
	}
	m["serve.ingest_json_ns_per_event"] = perReadingNS(time.Since(t0), p.events)
	if err := srv.Abort(); err != nil {
		return err
	}

	// wal: a bare log — append, commit after every frame, replay, ship.
	bareDir, err := tracked.tempDir("probe-bare-wal")
	if err != nil {
		return err
	}
	log, err := wal.Open(bareDir, sites, wal.Options{SyncEvery: -1})
	if err != nil {
		return err
	}
	if err := log.StartAppending(); err != nil {
		return err
	}
	var appendD time.Duration
	var commitUS []float64
	for _, runs := range p.runs {
		t0 := time.Now()
		for _, run := range runs {
			if err := log.AppendReadings(run.site, run.readings); err != nil {
				return err
			}
		}
		appendD += time.Since(t0)
		t0 = time.Now()
		if err := log.Commit(); err != nil {
			return err
		}
		commitUS = append(commitUS, float64(time.Since(t0))/float64(time.Microsecond))
	}
	m["wal.append_ns_per_reading"] = perReadingNS(appendD, p.readings)
	m["wal.commit_p50_us"] = percentile(commitUS, 50)
	m["wal.commit_max_us"] = percentile(commitUS, 100)
	shipped, shipD, err := shipAll(log)
	if err != nil {
		return err
	}
	m["wal.ship_mb_per_s"] = float64(shipped) / (1 << 20) / shipD.Seconds()
	if err := log.Close(); err != nil {
		return err
	}
	log, err = wal.Open(bareDir, sites, wal.Options{SyncEvery: -1})
	if err != nil {
		return err
	}
	records := 0
	t0 = time.Now()
	if err := log.Replay(func(stream.WALRecord) error { records++; return nil }); err != nil {
		return err
	}
	m["wal.replay_ns_per_record"] = perReadingNS(time.Since(t0), records)
	log.Close()

	// serve: recovery over the directory the WAL-on ingest above crashed
	// with (a long un-snapshotted tail).
	t0 = time.Now()
	srv, err = serve.New(w.World.newCluster(p.world), noCheckpoint(p.world, crashed, false))
	if err != nil {
		return err
	}
	m["serve.recover_ms"] = ms(time.Since(t0))
	if err := srv.Abort(); err != nil {
		return err
	}
	return nil
}

// shipAll ships a log's whole content into a fresh receiver the way the
// standby's subscribe loop does, and returns the bytes moved.
func shipAll(log *wal.Log) (int64, time.Duration, error) {
	dir, err := tracked.tempDir("probe-ship")
	if err != nil {
		return 0, 0, err
	}
	rcv, err := wal.OpenReceiver(dir)
	if err != nil {
		return 0, 0, err
	}
	defer rcv.Close()
	var frames []byte
	t0 := time.Now()
	for {
		pos, err := rcv.Pos()
		if err != nil {
			return 0, 0, err
		}
		if frames, err = log.ShipDelta(frames[:0], pos, 0); err != nil {
			return 0, 0, err
		}
		if len(frames) == 0 {
			return rcv.ShippedBytes(), time.Since(t0), nil
		}
		for rest := frames; len(rest) > 0; {
			rf, n, err := stream.DecodeReplFrame(rest)
			if err != nil {
				return 0, 0, err
			}
			if err := rcv.Apply(rf); err != nil {
				return 0, 0, err
			}
			rest = rest[n:]
		}
	}
}

// mechanismProbes measures, on the fixed probe deployment: restoring a
// snapshot plus a three-checkpoint tail, decoding that snapshot, promoting
// a caught-up standby, and the delivery tier's cost per matched
// subscriber.
func mechanismProbes(seed int64, m map[string]float64) error {
	world, err := sim.Generate(probeSpec.simConfig(seed))
	if err != nil {
		return err
	}
	iv := model.Epoch(probeSpec.Interval)
	evs := flatten(world)
	var wire []serve.Event
	for _, ev := range evs {
		if ev.depart != nil {
			wire = append(wire, serve.Depart(*ev.depart))
		} else {
			wire = append(wire, serve.Reading(ev.site, ev.r.T, ev.r.ID, ev.r.Mask))
		}
	}
	cfg := func(dir string) serve.Config {
		return serve.Config{Interval: iv, Horizon: world.Epochs, Workers: 1, DataDir: dir,
			SnapshotEvery: -1, Query: dist.ColdChainQuery(world, iv)}
	}
	// stream feeds the probe world up to an epoch and drains to it.
	feed := func(srv *serve.Server, from, through model.Epoch) error {
		var batch []serve.Event
		for _, e := range wire {
			if t := e.Time(); t >= from && t < through {
				batch = append(batch, e)
			}
		}
		if err := srv.Ingest(batch); err != nil {
			return err
		}
		return srv.Drain(through)
	}

	// Snapshot at 10 checkpoints, then a 3-checkpoint tail, then crash.
	dir, err := tracked.tempDir("probe-snapshot")
	if err != nil {
		return err
	}
	srv, err := serve.New(probeSpec.newCluster(world), cfg(dir))
	if err != nil {
		return err
	}
	if err := feed(srv, 0, 10*iv); err != nil {
		return err
	}
	if _, err := srv.SnapshotNow(); err != nil {
		return err
	}
	if err := feed(srv, 10*iv, 13*iv); err != nil {
		return err
	}
	if err := srv.Abort(); err != nil {
		return err
	}
	log, err := wal.Open(dir, len(world.Sites), wal.Options{SyncEvery: -1})
	if err != nil {
		return err
	}
	t0 := time.Now()
	_, ok, err := log.LoadState()
	m["wal.load_state_ms"] = ms(time.Since(t0))
	log.Close()
	if err != nil || !ok {
		return fmt.Errorf("probe snapshot did not load (ok=%v): %v", ok, err)
	}
	t0 = time.Now()
	srv, err = serve.New(probeSpec.newCluster(world), cfg(dir))
	if err != nil {
		return err
	}
	m["serve.recover_snapshot_ms"] = ms(time.Since(t0))
	if err := srv.Abort(); err != nil {
		return err
	}

	// Promotion: a primary over that directory serving HTTP in-process, a
	// standby shipping from it until caught up, then Promote alone.
	primary, err := serve.New(probeSpec.newCluster(world), cfg(dir))
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: primary.Handler()}
	go hs.Serve(ln)
	defer hs.Close()
	replica, err := tracked.tempDir("probe-replica")
	if err != nil {
		return err
	}
	sb, err := serve.NewStandby(serve.StandbyConfig{
		Primary: "http://" + ln.Addr().String(), Dir: replica, ShipInterval: 5 * time.Millisecond,
		Build: func() (*dist.Cluster, serve.Config, error) {
			return probeSpec.newCluster(world), cfg(""), nil
		},
	})
	if err != nil {
		return err
	}
	// The primary is idle, so the standby has caught up once a poll ships
	// nothing new.
	deadline := time.Now().Add(10 * time.Second)
	for last := int64(-1); ; {
		time.Sleep(20 * time.Millisecond) // four ship intervals
		st := sb.Status()
		if st.Err == "" && st.ShippedBytes > 0 && st.ShippedBytes == last {
			break
		}
		last = st.ShippedBytes
		if time.Now().After(deadline) {
			sb.Close()
			return fmt.Errorf("probe standby never caught up: %+v", st)
		}
	}
	t0 = time.Now()
	err = sb.Promote()
	m["serve.promote_ms"] = ms(time.Since(t0))
	if err != nil {
		return err
	}
	if err := sb.Server().Abort(); err != nil {
		return err
	}
	if err := primary.Abort(); err != nil {
		return err
	}

	// Fan-out: the same stream drained with and without a crowd of tag
	// subscribers on the tags that alert; the extra drain time per extra
	// enqueued delivery is the cost of one match.
	drainWith := func(subscribers int, alerting []model.TagID) (time.Duration, int, []model.TagID, error) {
		srv, err := serve.New(probeSpec.newCluster(world), cfg(""))
		if err != nil {
			return 0, 0, nil, err
		}
		for i := 0; i < subscribers; i++ {
			f := serve.MatchAll()
			f.Tag = alerting[i%len(alerting)]
			srv.SubscribeFilter(f)
		}
		stop := make(chan struct{})
		polled := make(chan struct{}, fanoutPollers)
		for i := 0; i < min(fanoutPollers, subscribers); i++ {
			go func() {
				defer func() { polled <- struct{}{} }()
				sub := srv.SubscribeCursor(serve.MatchAll(), 0)
				defer sub.Close()
				for {
					select {
					case <-stop:
						return
					default:
						sub.Poll(256, 10*time.Millisecond)
					}
				}
			}()
		}
		if err := srv.Ingest(wire); err != nil {
			return 0, 0, nil, err
		}
		t0 := time.Now()
		err = srv.Drain(0)
		d := time.Since(t0)
		close(stop)
		for i := 0; i < min(fanoutPollers, subscribers); i++ {
			<-polled
		}
		if err != nil {
			return 0, 0, nil, err
		}
		alerts, _, _ := srv.PollAlerts(serve.MatchAll(), 0, 1<<20, 0)
		var tags []model.TagID
		for _, a := range alerts {
			tags = append(tags, a.Tag)
		}
		enq := int(srv.Stats().Delivery.Enqueued)
		return d, enq, tags, srv.Abort()
	}
	var bare, crowded []float64
	_, enq0, tags, err := drainWith(0, nil)
	if err != nil {
		return err
	}
	enq1 := 0
	if len(tags) > 0 {
		for i := 0; i < 5; i++ {
			d0, _, _, err := drainWith(0, nil)
			if err != nil {
				return err
			}
			d1, e1, _, err := drainWith(fanoutSubscribers, tags)
			if err != nil {
				return err
			}
			bare = append(bare, float64(d0))
			crowded = append(crowded, float64(d1))
			enq1 = e1
		}
	}
	if extra := enq1 - enq0; extra > 0 {
		m["serve.fanout_ns_per_match"] = (median(crowded) - median(bare)) / float64(extra)
	}
	return nil
}

// daemonProbe runs one repetition of the workload on the real daemon for
// the numbers that need a socket: the generator's lateness, the latency
// tail, backpressure, the group-fsync count, replication lag, and how much
// of the daemon's window the HTTP front costs over the embedded ledger
// (ledgerWall is the same work driven in-process).
func daemonProbe(ctx context.Context, w workload, seed int64, ref reference, ledgerWall time.Duration, m map[string]float64, fail func(string, ...any)) error {
	s, err := prepare(ctx, w, seed)
	if err != nil {
		return err
	}
	r, err := runRep(ctx, w, s, ref, repOptions{verifyRecovery: true, pollRepl: true})
	if err != nil {
		return err
	}
	window := r.windowS
	if w.FromRestart {
		window = r.restartS
	}
	m["serve.http_share"] = (window - ledgerWall.Seconds()) / window
	for _, p := range r.problems {
		fail("daemon repetition: %s", p)
	}
	waits := 0
	for _, sh := range r.stats.Shards {
		waits += sh.Waits
	}
	m["serve.backpressure_waits"] = float64(waits)
	if r.stats.WAL != nil {
		m["wal.syncs"] = float64(r.stats.WAL.Syncs)
	}
	m["wal.repl_lag_p50_kb"] = percentile(r.replLagKB, 50)
	m["loadgen.late_p99_ms"] = percentile(r.lateMS, 99)
	m["loadgen.achieved_rate_share"] = r.achievedShare
	m["loadgen.alert_latency_p50_ms"] = percentile(r.alertMS, 50)
	m["loadgen.alert_latency_p90_ms"] = percentile(r.alertMS, 90)
	m["loadgen.alert_latency_p99_ms"] = percentile(r.alertMS, 99)
	m["loadgen.alert_latency_max_ms"] = percentile(r.alertMS, 100)
	m["loadgen.ingest_ack_p90_ms"] = percentile(r.ackMS, 90)
	m["loadgen.ingest_ack_p99_ms"] = percentile(r.ackMS, 99)
	return nil
}
