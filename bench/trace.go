package main

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"time"

	"rfidtrack/internal/dist"
	"rfidtrack/internal/model"
	"rfidtrack/internal/serve"
	"rfidtrack/internal/sim"
	"rfidtrack/internal/stream"
	"rfidtrack/internal/wal"
)

// A ledger shorter than the budget is run in up to maxLedgerPairs
// off/on pairs, so trace.overhead_share compares medians.
const (
	maxLedgerPairs   = 5
	ledgerPairBudget = 3 * time.Second
)

// unattributedLimit is the reconciliation rule: the layers' self times
// must account for at least nine tenths of the ledger run's wall.
const unattributedLimit = 0.10

// siteRun is a run of same-site readings inside one request body — the
// unit the server appends to the WAL in one call.
type siteRun struct {
	site     int
	readings []dist.Reading
}

// bodyRuns decodes a pre-encoded body back into its per-site runs and
// departures, through the same public decoders the server uses.
func bodyRuns(b *body) (runs []siteRun, deps []dist.Departure, err error) {
	if b.path == "/ingest/bin" {
		_, err = stream.DecodeBatchFrame(b.data, func(sec stream.BatchSection) error {
			run := siteRun{site: sec.Site, readings: make([]dist.Reading, sec.Len())}
			for i := range run.readings {
				t, tag, mask := sec.At(i)
				run.readings[i] = dist.Reading{T: t, ID: tag, Mask: mask}
			}
			runs = append(runs, run)
			return nil
		})
		return runs, nil, err
	}
	_, err = serve.ReadEvents(bytes.NewReader(b.data), func(e serve.Event) error {
		if e.Type == serve.TypeDepart {
			deps = append(deps, dist.Departure{Object: e.Object, From: e.From, To: e.To, At: e.At})
			return nil
		}
		if n := len(runs); n == 0 || runs[n-1].site != e.Site {
			runs = append(runs, siteRun{site: e.Site})
		}
		last := &runs[len(runs)-1]
		last.readings = append(last.readings, dist.Reading{T: e.T, ID: e.Tag, Mask: e.Mask})
		return nil
	})
	return runs, deps, err
}

// tracedInput is a workload's stream cut so that no request crosses a
// Δ boundary, grouped by interval: what the serial ledger run feeds one
// interval at a time.
type tracedInput struct {
	world    *sim.World
	evs      []event // the flattened stream the bodies were cut from
	bodies   []body
	interval []int // interval index of every body
	readings int
	nIv      int
}

func prepareTraced(w workload, seed int64) (*tracedInput, time.Duration, error) {
	t0 := time.Now()
	world, err := sim.Generate(w.World.simConfig(seed))
	if err != nil {
		return nil, 0, err
	}
	generate := time.Since(t0)
	iv := model.Epoch(w.World.Interval)
	evs := flatten(world)
	in := &tracedInput{world: world, evs: evs, nIv: int((world.Epochs + iv - 1) / iv)}
	if in.bodies, err = w.encode(evs, len(world.Sites), iv); err != nil {
		return nil, 0, err
	}
	// A body's interval is that of its readings; a departures-only body
	// travels with the body that follows it.
	in.interval = make([]int, len(in.bodies))
	for i := len(in.bodies) - 1; i >= 0; i-- {
		switch b := in.bodies[i]; {
		case b.lastT >= 0:
			in.interval[i] = int(b.lastT / iv)
		case i+1 < len(in.bodies):
			in.interval[i] = in.interval[i+1]
		default:
			in.interval[i] = in.nIv - 1
		}
		in.readings += in.bodies[i].readings
	}
	return in, generate, nil
}

// serveConfig is the daemon's configuration for this workload, as
// cmd/rfidtrackd builds it from its flags, with one worker: the ledger run
// is the single-threaded baseline.
func (w workload) serveConfig(world *sim.World, dataDir string) serve.Config {
	cfg := serve.Config{
		Interval: model.Epoch(w.World.Interval),
		Horizon:  world.Epochs,
		Workers:  1,
		DataDir:  dataDir,
	}
	if w.World.Query {
		cfg.Query = dist.ColdChainQuery(world, cfg.Interval)
	}
	return cfg
}

// ckptDelta is what the program's own counters say one checkpoint cost,
// read at the boundaries of its drain span.
type ckptDelta struct {
	drainSpan int
	advance   time.Duration // serve's Sched.Total: time inside Feed.AdvanceWith
	phases    dist.PhaseNS
}

// ledgerRun drives the pipeline in-process and serially, one Δ-interval at
// a time — ingest the interval's bodies, Drain to its boundary, poll the
// alerts — with a span around every call. off runs the identical loop
// with no spans. The server is returned live, for the caller's checks.
type ledgerRun struct {
	led       *ledger
	srv       *serve.Server
	cluster   *dist.Cluster
	wall      time.Duration
	bodySpan  []int // live span of every body's ingest call
	deltas    []ckptDelta
	drainMS   []float64
	pollUS    []float64 // PollAlerts calls that returned alerts
	alerts    []serve.Alert
	emIters   int
	lastStats serve.Stats
}

func runLedger(w workload, in *tracedInput, seed int64, off bool) (*ledgerRun, error) {
	dir, err := tracked.tempDir("ledger")
	if err != nil {
		return nil, err
	}
	lr := &ledgerRun{cluster: w.World.newCluster(in.world), bodySpan: make([]int, len(in.bodies))}
	lr.srv, err = serve.New(lr.cluster, w.serveConfig(in.world, dir))
	if err != nil {
		return nil, err
	}
	// The daemon keeps one channel subscriber of its own (it prints every
	// alert); the ledger run keeps the same one, so the delivery tier does
	// the work it does there.
	sub := lr.srv.Subscribe()
	go func() {
		for range sub.C {
		}
	}()
	checkpoints := w.DrainInWindow
	var events []serve.Event
	cursor := 0
	prev := lr.srv.Stats()

	lr.led = newLedger(w.Name, seed, off)
	led := lr.led
	start := time.Now()
	root := led.begin(rootName, -1, -1)
	next := 0
	for k := 0; k < in.nIv; k++ {
		for ; next < len(in.bodies) && in.interval[next] == k; next++ {
			b := &in.bodies[next]
			if b.path == "/ingest/bin" {
				sp := led.begin("serve.ingest_frame", root, k)
				_, err = lr.srv.IngestFrame(b.data)
				led.end(sp)
				lr.bodySpan[next] = sp
			} else {
				events = events[:0]
				sp := led.begin("serve.json_decode", root, k)
				_, err = serve.ReadEvents(bytes.NewReader(b.data), func(e serve.Event) error {
					events = append(events, e)
					return nil
				})
				led.end(sp)
				if err == nil {
					sp = led.begin("serve.ingest_json", root, k)
					err = lr.srv.Ingest(events)
					led.end(sp)
					lr.bodySpan[next] = sp
				}
			}
			if err != nil {
				return nil, fmt.Errorf("ledger ingest of body %d: %w", next, err)
			}
		}
		if !checkpoints {
			continue
		}
		sp := led.begin("serve.drain", root, k)
		t0 := time.Now()
		err = lr.srv.Drain(model.Epoch(k+1) * model.Epoch(w.World.Interval))
		lr.drainMS = append(lr.drainMS, float64(time.Since(t0))/float64(time.Millisecond))
		led.end(sp)
		if err != nil {
			return nil, fmt.Errorf("ledger drain of interval %d: %w", k, err)
		}
		st := lr.srv.Stats()
		lr.deltas = append(lr.deltas, ckptDelta{
			drainSpan: sp,
			advance:   st.Sched.Total - prev.Sched.Total,
			phases: dist.PhaseNS{
				Ingest:  st.Feed.Phases.Ingest - prev.Feed.Phases.Ingest,
				Migrate: st.Feed.Phases.Migrate - prev.Feed.Phases.Migrate,
				Infer:   st.Feed.Phases.Infer - prev.Feed.Phases.Infer,
				Tail:    st.Feed.Phases.Tail - prev.Feed.Phases.Tail,
			},
		})
		prev = st
		for _, eng := range lr.cluster.Engines {
			lr.emIters += eng.Iterations()
		}
		sp = led.begin("serve.poll_alerts", root, k)
		t0 = time.Now()
		got, nextCursor, _ := lr.srv.PollAlerts(serve.MatchAll(), cursor, 1<<20, 0)
		if len(got) > 0 {
			lr.pollUS = append(lr.pollUS, float64(time.Since(t0))/float64(time.Microsecond))
		}
		led.end(sp)
		lr.alerts = append(lr.alerts, got...)
		cursor = nextCursor
	}
	led.end(root)
	lr.wall = time.Since(start)
	lr.lastStats = lr.srv.Stats()

	// The program's own counters place dist, rfinfer and query inside each
	// drain: attached after the run, so reading them costs the ledger
	// nothing.
	for _, d := range lr.deltas {
		adv := led.attach(d.drainSpan, "dist.advance", d.advance, srcStats)
		led.attach(adv, "dist.ingest", d.phases.Ingest, srcStats)
		led.attach(adv, "dist.migrate", d.phases.Migrate, srcStats)
		led.attach(adv, "rfinfer.run", d.phases.Infer, srcStats)
		led.attach(adv, "query.tail", d.phases.Tail, srcStats)
	}
	return lr, nil
}

// attachIsolated replays every body through the stream decoder alone and
// a bare wal.Log alone, and hangs the measured durations under the body's
// ingest span: what is left of that span is serve's own validate/bucket
// work.
func attachIsolated(led *ledger, in *tracedInput, bodySpan []int, sites int) error {
	dir, err := tracked.tempDir("isolated-wal")
	if err != nil {
		return err
	}
	log, err := wal.Open(dir, sites, wal.Options{})
	if err != nil {
		return err
	}
	defer log.Close()
	if err := log.StartAppending(); err != nil {
		return err
	}
	for i := range in.bodies {
		b := &in.bodies[i]
		runs, deps, err := bodyRuns(b)
		if err != nil {
			return err
		}
		if b.path == "/ingest/bin" {
			t0 := time.Now()
			if _, err := stream.DecodeBatchFrame(b.data, func(stream.BatchSection) error { return nil }); err != nil {
				return err
			}
			led.attach(bodySpan[i], "stream.decode_frame", time.Since(t0), srcIsolated)
		}
		t0 := time.Now()
		for _, run := range runs {
			if err := log.AppendReadings(run.site, run.readings); err != nil {
				return err
			}
		}
		for _, d := range deps {
			if err := log.AppendDeparture(d); err != nil {
				return err
			}
		}
		led.attach(bodySpan[i], "wal.append", time.Since(t0), srcIsolated)
	}
	return nil
}

// runTraced is the per-layer run of one workload: the serial ledger run
// with spans, the same run without, the isolated layer replays, the
// fixed-size layer probes, and one repetition on the real daemon for the
// numbers only a socket can give. It never contributes to an end-to-end
// metric.
func runTraced(ctx context.Context, w workload, seed int64) (*runResult, error) {
	in, generate, err := prepareTraced(w, seed)
	if err != nil {
		return nil, err
	}
	ref, err := computeReference(w.World, in.world)
	if err != nil {
		return nil, err
	}
	res := &runResult{Workload: w.Name, Seed: seed, Trace: true}
	res.Sizing = fmt.Sprintf("world: sites=%d path=%d items=%d epochs=%d anomaly=%d delta=%d strategy=%s query=%v\n"+
		"ledger: Workers=1, %d interval-aligned bodies carrying %d readings, driven one interval at a time",
		w.World.Sites, w.World.Path, w.World.Items, w.World.Epochs, w.World.Anomaly, w.World.Interval,
		w.World.Strategy, w.World.Query, len(in.bodies), in.readings)
	m := map[string]float64{"sim.generate_ms": ms(generate)}
	fail := func(format string, args ...any) {
		res.Failed++
		res.Problems = append(res.Problems, fmt.Sprintf(format, args...))
	}
	res.Attempted = len(in.evs) + len(ref.alerts) + 1

	var led *ledger
	if w.FromRestart {
		led, err = tracedRecovery(w, in, seed, ref, m, fail)
	} else {
		led, err = tracedPipeline(w, in, seed, ref, m, fail)
	}
	if err != nil {
		return nil, err
	}
	res.ledger = led
	m["trace.unattributed_share"] = led.unattributedShare()
	if m["trace.unattributed_share"] > unattributedLimit {
		fail("ledger does not reconcile: %.1f%% of its wall is unattributed (limit %.0f%%)",
			100*m["trace.unattributed_share"], 100*unattributedLimit)
	}
	if got := led.layerShare(w.Dominant...) / (1 - led.layerShare(w.Beside...)); got < dominantShare {
		fail("layers %v hold %.1f%% of the ledger's self time (beside %v), predicted at least %.0f%%",
			w.Dominant, 100*got, w.Beside, 100*dominantShare)
	}
	if path, err := led.write(); err != nil {
		return nil, err
	} else {
		res.Sizing += "\nspans written to " + path
	}

	if err := layerProbes(w, in, m); err != nil {
		return nil, err
	}
	if err := mechanismProbes(seed, m); err != nil {
		return nil, err
	}
	_, wallNS := led.rows()
	if err := daemonProbe(ctx, w, seed, ref, time.Duration(wallNS), m, fail); err != nil {
		return nil, err
	}

	for _, name := range driverPerLayer {
		res.add(name, m[name], nil, 1)
	}
	res.Correct = res.Failed == 0
	return res, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// tracedPipeline is the ledger of the workloads that stream into a live
// server: paper_dense and alert_live with their checkpoints, firehose
// with none inside its window.
func tracedPipeline(w workload, in *tracedInput, seed int64, ref reference, m map[string]float64, fail func(string, ...any)) (*ledger, error) {
	// Pairs of runs, spans off then spans on; the last traced run is the one
	// reported. A short ledger is paired several times, because one pair of
	// sub-second runs measures the machine's mood, not the spans.
	var lr *ledgerRun
	var on, off []float64
	for spent := time.Duration(0); len(on) == 0 || (len(on) < maxLedgerPairs && spent < ledgerPairBudget); {
		offRun, err := runLedger(w, in, seed, true)
		if err != nil {
			return nil, err
		}
		if err := offRun.srv.Abort(); err != nil {
			return nil, err
		}
		if lr != nil {
			if err := lr.srv.Abort(); err != nil {
				return nil, err
			}
		}
		if lr, err = runLedger(w, in, seed, false); err != nil {
			return nil, err
		}
		off = append(off, offRun.wall.Seconds())
		on = append(on, lr.wall.Seconds())
		spent += offRun.wall + lr.wall
	}
	m["trace.overhead_share"] = median(on)/median(off) - 1
	if err := attachIsolated(lr.led, in, lr.bodySpan, len(in.world.Sites)); err != nil {
		return nil, err
	}

	// The ledger run's own outputs are checked like a daemon's. A workload
	// without checkpoints in its window drains here, after the ledger.
	if !w.DrainInWindow {
		if err := lr.srv.Drain(0); err != nil {
			return nil, err
		}
	}
	got, err := canon(lr.srv.Result())
	if err != nil {
		return nil, err
	}
	want, err := canon(ref.result)
	if err != nil {
		return nil, err
	}
	if !reflect.DeepEqual(got, want) {
		fail("ledger run's Result diverged from ReplaySequential\n got: %+v\nwant: %+v", got, want)
	}
	if w.DrainInWindow && !reflect.DeepEqual(lr.alerts, ref.alerts) && len(lr.alerts)+len(ref.alerts) > 0 {
		fail("ledger run raised %d alerts, the reference transcript has %d (or they differ)", len(lr.alerts), len(ref.alerts))
	}
	st := lr.lastStats
	if bad := st.Invalid + st.BadFrames + st.Feed.Late + st.Feed.LateDepartures; bad > 0 {
		fail("ledger run refused input: %d invalid (%s), %d bad frames, %d late", st.Invalid, st.LastInvalid, st.BadFrames, st.Feed.Late)
	}

	if w.DrainInWindow {
		t0 := time.Now()
		if _, err := lr.srv.SnapshotNow(); err != nil {
			return nil, err
		}
		m["serve.snapshot_ms"] = ms(time.Since(t0))
		checkpointMetrics(w, in, lr, m)
		if err := isolatedCheckpoints(w, in, lr, m, fail); err != nil {
			return nil, err
		}
	}
	if err := lr.srv.Abort(); err != nil {
		return nil, err
	}
	return lr.led, nil
}

// checkpointMetrics derives the per-checkpoint metrics from the ledger
// run's spans and the counters read beside them.
func checkpointMetrics(w workload, in *tracedInput, lr *ledgerRun, m map[string]float64) {
	n := float64(len(lr.deltas))
	var adv time.Duration
	var ph dist.PhaseNS
	for _, d := range lr.deltas {
		adv += d.advance
		ph.Ingest += d.phases.Ingest
		ph.Migrate += d.phases.Migrate
		ph.Infer += d.phases.Infer
		ph.Tail += d.phases.Tail
	}
	var drainTotal float64
	for _, d := range lr.drainMS {
		drainTotal += d
	}
	st := lr.lastStats
	m["dist.phase_ingest_ms"] = ms(ph.Ingest) / n
	m["dist.phase_migrate_ms"] = ms(ph.Migrate) / n
	m["dist.phase_infer_ms"] = ms(ph.Infer) / n
	m["dist.phase_tail_ms"] = ms(ph.Tail) / n
	m["query.tail_ms_per_checkpoint"] = ms(ph.Tail) / n
	m["query.alerts"] = float64(len(lr.alerts))
	m["dist.fused_share"] = float64(st.Feed.FusedCheckpoints) / float64(max(st.Feed.Checkpoints, 1))
	tot := st.Cluster.Totals()
	m["dist.migrations"] = float64(tot.MigrationsOut)
	m["dist.migrated_bytes"] = float64(tot.BytesOut)
	hottest, sum := 0, 0
	for _, sh := range st.Shards {
		hottest = max(hottest, sh.Received)
		sum += sh.Received
	}
	m["dist.site_skew"] = float64(hottest) * float64(len(st.Shards)) / float64(max(sum, 1))
	m["serve.checkpoint_p50_ms"] = percentile(lr.drainMS, 50)
	m["serve.checkpoint_max_ms"] = percentile(lr.drainMS, 100)
	m["serve.sched_overhead_ms_per_checkpoint"] = (drainTotal - ms(adv)) / n
	m["serve.publish_to_poll_p50_us"] = percentile(lr.pollUS, 50)
	m["serve.delivery_enqueued"] = float64(st.Delivery.Enqueued)
	m["serve.delivery_dropped"] = float64(st.Delivery.Dropped)
	m["serve.delivery_catchups"] = float64(st.Delivery.Catchups)
	m["rfinfer.dirty_groups"] = float64(st.Sched.DirtyGroups)
	m["rfinfer.skipped_groups"] = float64(st.Sched.SkippedGroups)
	m["rfinfer.em_iterations"] = float64(lr.emIters)
}

// isolatedCheckpoints replays the sealed interval buckets through a bare
// dist.Feed (AdvanceWith alone, no server around it) and through bare
// per-site rfinfer engines (ObserveMask + Run alone, no cluster around
// them). The counts the feed reports must repeat the ledger run's exactly.
func isolatedCheckpoints(w workload, in *tracedInput, lr *ledgerRun, m map[string]float64, fail func(string, ...any)) error {
	sites := len(in.world.Sites)
	buckets := make([][][]dist.Reading, in.nIv)
	deps := make([][]dist.Departure, in.nIv)
	for k := range buckets {
		buckets[k] = make([][]dist.Reading, sites)
	}
	for i := range in.bodies {
		runs, ds, err := bodyRuns(&in.bodies[i])
		if err != nil {
			return err
		}
		k := in.interval[i]
		for _, run := range runs {
			buckets[k][run.site] = append(buckets[k][run.site], run.readings...)
		}
		deps[k] = append(deps[k], ds...)
	}

	// Bare engines first: they only read the buckets; AdvanceWith sorts
	// them in place and may recycle them.
	iv := model.Epoch(w.World.Interval)
	bare := w.World.newCluster(in.world).Engines
	var run time.Duration
	var reused, computed, evSkipped, evComputed int
	for k := range buckets {
		for s, eng := range bare {
			t0 := time.Now()
			for _, r := range buckets[k][s] {
				if err := eng.ObserveMask(r.T, r.ID, r.Mask); err != nil {
					return fmt.Errorf("bare engine %d: %w", s, err)
				}
			}
			eng.Run(model.Epoch(k+1) * iv)
			run += time.Since(t0)
			es := eng.Stats()
			reused += es.RowsReused
			computed += es.RowsComputed
			evSkipped += es.EvidenceSkipped
			evComputed += es.EvidenceComputed
		}
	}
	m["rfinfer.run_ms_per_site_checkpoint"] = ms(run) / float64(in.nIv*sites)
	m["rfinfer.rows_reused_share"] = float64(reused) / float64(max(reused+computed, 1))
	m["rfinfer.evidence_skipped_share"] = float64(evSkipped) / float64(max(evSkipped+evComputed, 1))

	c := w.World.newCluster(in.world)
	c.Workers = 1
	if w.World.Query {
		c.Query = dist.ColdChainQuery(in.world, iv)
	}
	feed, err := c.OpenFeed(iv)
	if err != nil {
		return err
	}
	var adv time.Duration
	for k := range buckets {
		for _, d := range deps[k] {
			if err := feed.Depart(d); err != nil {
				return err
			}
		}
		t0 := time.Now()
		if err := feed.AdvanceWith(buckets[k]); err != nil {
			return err
		}
		adv += time.Since(t0)
	}
	m["dist.advance_ms_per_checkpoint"] = ms(adv) / float64(in.nIv)
	tot := c.Stats().Totals()
	if float64(tot.MigrationsOut) != m["dist.migrations"] || float64(tot.BytesOut) != m["dist.migrated_bytes"] {
		fail("counts did not repeat: bare feed migrated %d payloads / %d bytes, ledger run %v / %v",
			tot.MigrationsOut, tot.BytesOut, m["dist.migrations"], m["dist.migrated_bytes"])
	}
	return nil
}

// tracedRecovery is crash_recover's ledger: what a restart over the
// crashed directory does, call by call — regenerate the world, rebuild the
// cluster, serve.New (which loads state and replays the WAL tail) — with
// wal.Log.Replay alone measured over the same directory and attached
// inside serve.New.
func tracedRecovery(w workload, in *tracedInput, seed int64, ref reference, m map[string]float64, fail func(string, ...any)) (*ledger, error) {
	dir, err := tracked.tempDir("crashed")
	if err != nil {
		return nil, err
	}
	cfg := w.serveConfig(in.world, dir)
	writer, err := serve.New(w.World.newCluster(in.world), cfg)
	if err != nil {
		return nil, err
	}
	for i := range in.bodies {
		runs, deps, err := bodyRuns(&in.bodies[i])
		if err != nil {
			return nil, err
		}
		for _, d := range deps {
			if err := writer.IngestDeparture(d); err != nil {
				return nil, err
			}
		}
		for _, run := range runs {
			if err := writer.IngestBatch(run.site, run.readings); err != nil {
				return nil, err
			}
		}
	}
	if err := writer.Abort(); err != nil { // crash-stop with the log flushed
		return nil, err
	}

	recoverOnce := func(off bool) (*ledger, *serve.Server, int, time.Duration, error) {
		led := newLedger(w.Name, seed, off)
		t0 := time.Now()
		root := led.begin(rootName, -1, -1)
		sp := led.begin("sim.generate", root, -1)
		world, err := sim.Generate(w.World.simConfig(seed))
		led.end(sp)
		if err != nil {
			return nil, nil, 0, 0, err
		}
		sp = led.begin("dist.new_cluster", root, -1)
		c := w.World.newCluster(world)
		led.end(sp)
		sp = led.begin("serve.recover", root, -1)
		srv, err := serve.New(c, w.serveConfig(world, dir))
		led.end(sp)
		led.end(root)
		return led, srv, sp, time.Since(t0), err
	}
	var led *ledger
	var srv *serve.Server
	var recoverSpan int
	var on, off []float64
	for spent := time.Duration(0); len(on) == 0 || (len(on) < maxLedgerPairs && spent < ledgerPairBudget); {
		_, srvOff, _, wallOff, err := recoverOnce(true)
		if err != nil {
			return nil, err
		}
		if err := srvOff.Abort(); err != nil {
			return nil, err
		}
		if srv != nil {
			if err := srv.Abort(); err != nil {
				return nil, err
			}
		}
		var wallOn time.Duration
		if led, srv, recoverSpan, wallOn, err = recoverOnce(false); err != nil {
			return nil, err
		}
		off = append(off, wallOff.Seconds())
		on = append(on, wallOn.Seconds())
		spent += wallOff + wallOn
	}
	m["trace.overhead_share"] = median(on)/median(off) - 1

	// wal.Log.Replay alone, over the same directory (the server holds it
	// open for appending; replay only reads).
	log, err := wal.Open(dir, len(in.world.Sites), wal.Options{SyncEvery: -1})
	if err != nil {
		return nil, err
	}
	records := 0
	t0 := time.Now()
	err = log.Replay(func(stream.WALRecord) error { records++; return nil })
	replay := time.Since(t0)
	log.Close()
	if err != nil {
		return nil, err
	}
	led.attach(recoverSpan, "wal.replay", replay, srcIsolated)
	if records != len(in.evs) {
		fail("crashed directory holds %d WAL records, %d events were ingested", records, len(in.evs))
	}

	if err := srv.Drain(0); err != nil {
		return nil, err
	}
	got, err := canon(srv.Result())
	if err != nil {
		return nil, err
	}
	want, err := canon(ref.result)
	if err != nil {
		return nil, err
	}
	if !reflect.DeepEqual(got, want) {
		fail("recovered ledger run's Result diverged from ReplaySequential\n got: %+v\nwant: %+v", got, want)
	}
	return led, srv.Abort()
}
