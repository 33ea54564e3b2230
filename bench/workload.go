package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"time"

	"rfidtrack/internal/dist"
	"rfidtrack/internal/model"
	"rfidtrack/internal/serve"
	"rfidtrack/internal/sim"
)

// workload is one named traffic mix against the real daemon.
type workload struct {
	Name string
	Why  string // one line, copied into BENCHMARK.json
	// World is the deployment at full size; sizeFor may shrink it.
	World worldSpec
	// Binary selects RFB1 frames on /ingest/bin (departures still ride
	// JSON); otherwise everything is JSON lines on /ingest.
	Binary bool
	// Batch is readings per frame or events per JSON body.
	Batch int
	// Rate, when positive, makes the loop open: events per second on a
	// fixed schedule. Zero is a closed loop on one connection.
	Rate float64
	// Standby runs a second rfidtrackd -standby-for shipping the WAL.
	Standby bool
	// DrainInWindow extends the timed window to POST /drain returning, so
	// the window covers every checkpoint the stream owes.
	DrainInWindow bool
	// FromRestart reports readings_per_s, CPU and RSS from the process
	// restarted over the crashed directory instead of the one that wrote it.
	FromRestart bool
	// MinReps is the fewest repetitions on fresh daemons a run makes; more
	// follow while the run's -seconds budget lasts.
	MinReps int
	// Restarts is how many times a repetition crashes and restarts its
	// daemon (default 1); a workload with a single repetition restarts
	// several times so restart_to_ready_s is not one sample.
	Restarts int
	// Dominant names the layers (span-name prefixes) predicted to do the
	// work inside the window; the traced run fails unless they hold at
	// least dominantShare of the ledger's self time, not counting the
	// layers in Beside (work the prediction is not about).
	Dominant, Beside []string
}

// dominantShare is the share of the ledger the predicted layers must hold.
const dominantShare = 0.70

// Validity limits of the open-loop workload: a run whose generator fell
// further behind its own schedule, or whose last live checkpoint's alerts
// trailed the end of the stream by more than the backlog limit, measured
// the generator or a growing queue rather than the daemon.
const (
	lateLimitMS    = 50.0
	backlogLimit   = 2 * time.Second
	streamPerWallS = 180 // alert_live: stream seconds per wall second at 60 000 events/s, first hour of the world
)

var workloads = []workload{
	{
		Name: "paper_dense",
		Why:  "closed loop at saturation on the paper's Table-2 supply chain at delta=300: inference does over 85% of the work, ingest and WAL almost none",
		World: worldSpec{Sites: 4, Path: 2, Items: 20, Epochs: 3600, Anomaly: 120,
			Interval: 300, Strategy: "weights", Query: true},
		Binary: true, Batch: 4096, DrainInWindow: true, MinReps: 3,
		Dominant: []string{"rfinfer.", "dist."},
	},
	{
		Name: "firehose",
		Why:  "closed loop on the front door only: frame decode, validate/bucket and WAL append do all the work, no checkpoint runs inside the window",
		World: worldSpec{Sites: 4, Path: 2, Items: 30, Epochs: 3600, Anomaly: 0,
			Interval: 3600, Strategy: "none"},
		Binary: true, Batch: 65536, MinReps: 3,
		Dominant: []string{"stream.", "serve.ingest", "serve.json", "wal."},
	},
	{
		Name: "alert_live",
		Why:  "open loop at a fixed 60000 events/s of JSON lines at delta=60 with a standby shipping the WAL: socket-to-alert latency at about 55% utilisation",
		World: worldSpec{Sites: 4, Path: 2, Items: 20, Epochs: 3600, Anomaly: 120,
			Interval: 60, Strategy: "weights", Query: true},
		Batch: 512, Rate: 60000, Standby: true, DrainInWindow: true, MinReps: 1, Restarts: 9,
		Dominant: []string{"rfinfer.", "dist."},
	},
	{
		Name: "crash_recover",
		Why:  "the WAL read path: kill -9 after a firehose stream, restart over the directory; replay and re-bucketing of a long un-snapshotted tail dominate",
		World: worldSpec{Sites: 4, Path: 2, Items: 30, Epochs: 3600, Anomaly: 0,
			Interval: 3600, Strategy: "none"},
		Binary: true, Batch: 65536, FromRestart: true, MinReps: 3,
		Dominant: []string{"wal.replay", "serve.recover"}, Beside: []string{"sim."},
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// sizeFor fits the workload to the run's measuring time. Closed-loop
// workloads keep their world and repeat; the open-loop one cannot repeat
// faster than its schedule, so its stream is cut to last about -seconds
// (whole Δ-intervals, never under 20 of them). quick shrinks every world
// to a few thousand readings for the smoke mode.
func (w workload) sizeFor(seconds int, quick bool) workload {
	if quick {
		w.World.Sites, w.World.Items, w.World.Epochs = 2, 4, 1200
		w.World.Interval = min(w.World.Interval, w.World.Epochs)
		w.Batch = min(w.Batch, 1024)
		if w.Rate > 0 {
			w.Rate = 20000
		}
		w.MinReps = 1
		return w
	}
	if w.Rate > 0 {
		iv := w.World.Interval
		epochs := seconds * streamPerWallS / iv * iv
		w.World.Epochs = min(max(epochs, 20*iv), w.World.Epochs)
	}
	return w
}

// setup is everything a repetition needs that is prepared before any
// timed window: the binary, the world, the pre-encoded request bodies.
type setup struct {
	bin      string
	seed     int64
	world    *sim.World
	bodies   []body
	readings int
	departs  int
}

// encode cuts the flattened stream into this workload's request bodies;
// see encodeFrames for align.
func (w workload) encode(evs []event, sites int, align model.Epoch) ([]body, error) {
	if w.Binary {
		return encodeFrames(evs, sites, w.Batch, align)
	}
	return encodeJSON(evs, w.Batch, align)
}

// prepare builds the binary, generates the world from the seed and
// encodes every request body. It is what setup_s times (together with the
// daemon's own start-up, measured per repetition).
func prepare(ctx context.Context, w workload, seed int64) (*setup, error) {
	bin, err := buildDaemon(ctx)
	if err != nil {
		return nil, err
	}
	world, err := sim.Generate(w.World.simConfig(seed))
	if err != nil {
		return nil, fmt.Errorf("sim.Generate: %w", err)
	}
	evs := flatten(world)
	s := &setup{bin: bin, seed: seed, world: world}
	if s.bodies, err = w.encode(evs, len(world.Sites), 0); err != nil {
		return nil, err
	}
	for _, b := range s.bodies {
		s.readings += b.readings
	}
	s.departs = len(evs) - s.readings
	return s, nil
}

// repResult is one repetition's measurements and verdicts.
type repResult struct {
	startS         float64 // exec → healthy, part of setup_s
	windowS        float64
	readingsPerS   float64
	cpuPerMReading float64
	peakRSSMB      float64
	restartS       float64 // median of the repetition's restarts
	ackMS          []float64
	alertMS        []float64
	lateMS         []float64 // open loop: send − due
	achievedShare  float64   // open loop: achieved ÷ scheduled rate
	attempted      int
	failed         int
	problems       []string
	stats          serve.Stats // primary's /stats when the window closed
	replLagKB      []float64   // polled, trace runs only
}

func (r *repResult) fail(n int, format string, args ...any) {
	r.failed += n
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// canon round-trips v through JSON into a fresh T, so a value fetched
// over HTTP and a value computed in-process compare in the same
// representation (nil and empty slices collapse the same way on both
// sides).
func canon[T any](v T) (T, error) {
	var out T
	b, err := json.Marshal(v)
	if err != nil {
		return out, err
	}
	err = json.Unmarshal(b, &out)
	return out, err
}

// walOnDisk sums the WAL segment sizes in a data directory.
func walOnDisk(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".wal") {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		total += info.Size()
	}
	return total, nil
}

// awaitFlushed waits until every WAL byte the daemon has appended is in
// its segment files. Without Strict the log sits in a user-space buffer
// until the group-fsync timer fires; a kill -9 before that loses
// acknowledged readings by design, and the recovery check needs all of
// them. Only meaningful on a directory that has never rotated segments.
func awaitFlushed(ctx context.Context, hc *http.Client, d *daemon, dataDir string) error {
	for {
		var st serve.Stats
		if err := getJSON(hc, d.url+"/stats", &st); err != nil {
			return err
		}
		disk, err := walOnDisk(dataDir)
		if err != nil {
			return err
		}
		if st.WAL != nil && disk >= st.WAL.AppendedBytes {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("WAL never reached disk (%d bytes there): %w", disk, ctx.Err())
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// drain posts /drain and returns the daemon's post-drain stats.
func drain(hc *http.Client, baseURL string) (serve.Stats, error) {
	var st serve.Stats
	resp, err := hc.Post(baseURL+"/drain", "", nil)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return st, fmt.Errorf("POST /drain: status %d: %s", resp.StatusCode, msg)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// checkResult compares a daemon's /result with the reference replay.
func checkResult(hc *http.Client, baseURL string, ref reference, r *repResult, who string) error {
	var got dist.Result
	if err := getJSON(hc, baseURL+"/result", &got); err != nil {
		return err
	}
	want, err := canon(ref.result)
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(got, want) {
		r.fail(1, "%s: /result diverged from ReplaySequential\n got: %+v\nwant: %+v", who, got, want)
	}
	return nil
}

// repOptions are the extras only some repetitions pay for.
type repOptions struct {
	// verifyRecovery, on a workload that does not drain inside its window,
	// makes the crash lossless (see awaitFlushed), drains the restarted
	// daemon and compares its Result. The workloads that do drain compare
	// the primary's Result on every repetition.
	verifyRecovery bool
	// pollRepl samples the standby's replication lag from extra
	// connections; trace runs only, because it perturbs the two-connection
	// budget.
	pollRepl bool
}

// runRep is one repetition: fresh daemon(s) on a fresh directory, the
// timed window, the output checks, then the crash — kill -9, restart over
// the same directory, time exec → healthy.
func runRep(ctx context.Context, w workload, s *setup, ref reference, opt repOptions) (*repResult, error) {
	r := &repResult{}
	dir, err := tracked.tempDir(w.Name)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	dataDir := filepath.Join(dir, "data")
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	args := append(w.World.daemonArgs(s.seed), "-data-dir", dataDir)
	d, readyIn, err := startDaemon(ctx, s.bin, dir, port, args...)
	if err != nil {
		return nil, err
	}
	defer func() { d.kill() }() // d is rebound to the restarted process below
	r.startS = readyIn.Seconds()

	var standby *daemon
	if w.Standby {
		sport, err := freePort()
		if err != nil {
			return nil, err
		}
		sargs := append(w.World.daemonArgs(s.seed),
			"-data-dir", filepath.Join(dir, "standby"), "-standby-for", d.url)
		if standby, _, err = startDaemon(ctx, s.bin, dir, sport, sargs...); err != nil {
			return nil, err
		}
		defer standby.kill()
	}

	var consumer *sseConsumer
	if w.World.Query {
		if consumer, err = followAlerts(d.url); err != nil {
			return nil, err
		}
		defer consumer.stop()
	}
	stopPoll := func() []float64 { return nil }
	if opt.pollRepl && standby != nil {
		stopPoll = pollReplLag(d.url)
	}

	hc := oneConn()
	defer hc.CloseIdleConnections()

	// The timed window.
	var posts []postResult
	t0 := time.Now()
	if w.Rate > 0 {
		posts, err = openLoop(hc, d.url, s.bodies, dueTimes(t0, len(s.bodies), w.Batch, w.Rate))
	} else {
		posts, err = closedLoop(hc, d.url, s.bodies)
	}
	if err != nil {
		return nil, fmt.Errorf("%w\n%s", err, d.logTail())
	}
	drained := false
	if w.DrainInWindow {
		if _, err := drain(hc, d.url); err != nil {
			return nil, fmt.Errorf("%w\n%s", err, d.logTail())
		}
		drained = true
	}
	window := time.Since(t0)
	first, err := d.usage()
	if err != nil {
		return nil, err
	}
	r.replLagKB = stopPoll()

	// Output checks on the process that took the stream.
	r.windowS = window.Seconds()
	r.ackMS = ackLatencies(posts)
	r.attempted = len(posts) + s.readings + len(ref.alerts) + 1
	for _, p := range posts {
		if p.status/100 != 2 {
			r.fail(1, "POST answered %d", p.status)
		}
	}
	if err := getJSON(hc, d.url+"/stats", &r.stats); err != nil {
		return nil, err
	}
	st := r.stats
	if bad := st.Invalid + st.BadFrames + st.Feed.Late + st.Feed.LateDepartures; bad > 0 {
		r.fail(bad, "daemon refused input: %d invalid (%s), %d bad frames, %d late readings, %d late departures",
			st.Invalid, st.LastInvalid, st.BadFrames, st.Feed.Late, st.Feed.LateDepartures)
	}
	if st.Received != s.readings+s.departs {
		r.fail(1, "daemon received %d events, %d were sent", st.Received, s.readings+s.departs)
	}
	if st.Err != "" {
		r.fail(1, "daemon pipeline error: %s", st.Err)
	}
	if drained {
		if err := checkResult(hc, d.url, ref, r, "primary"); err != nil {
			return nil, err
		}
		if err := w.checkAlerts(hc, d.url, consumer, ref, posts, s, r); err != nil {
			return nil, err
		}
	}
	if w.Rate > 0 {
		r.lateMS = generatorLateness(posts)
		scheduled := posts[len(posts)-1].due.Sub(posts[0].due)
		achieved := posts[len(posts)-1].sent.Sub(posts[0].sent)
		r.achievedShare = scheduled.Seconds() / achieved.Seconds()
		if p99 := percentile(r.lateMS, 99); p99 > lateLimitMS {
			r.fail(1, "invalid run: generator lateness p99 %.1f ms exceeds %.0f ms", p99, lateLimitMS)
		}
	}

	// The crash. A verified recovery needs every acknowledged byte on disk
	// first; the other repetitions crash wherever the group-fsync timer
	// happens to be, like a real kill -9.
	verifyRecovery := opt.verifyRecovery && !drained
	if verifyRecovery {
		if err := awaitFlushed(ctx, hc, d, dataDir); err != nil {
			return nil, err
		}
	}
	hc.CloseIdleConnections()
	var restarts []float64
	var second procUsage
	for i := 0; i < max(w.Restarts, 1); i++ {
		d.kill()
		restarted, readyIn, err := startDaemon(ctx, s.bin, dir, port, args...)
		if err != nil {
			return nil, fmt.Errorf("restart over crashed directory: %w", err)
		}
		d = restarted
		restarts = append(restarts, readyIn.Seconds())
		if second, err = d.usage(); err != nil {
			return nil, err
		}
	}
	r.restartS = median(restarts)
	if verifyRecovery {
		st, err := drain(hc, d.url)
		if err != nil {
			return nil, fmt.Errorf("%w\n%s", err, d.logTail())
		}
		if st.WAL == nil || st.WAL.Replayed != s.readings+s.departs {
			r.fail(1, "restart replayed %+v WAL records, %d events were acknowledged", st.WAL, s.readings+s.departs)
		}
		if err := checkResult(hc, d.url, ref, r, "restarted daemon"); err != nil {
			return nil, err
		}
	}

	mreadings := float64(s.readings) / 1e6
	use, per := first, r.windowS
	if w.FromRestart {
		use, per = second, r.restartS
	}
	r.readingsPerS = float64(s.readings) / per
	r.cpuPerMReading = use.cpu.Seconds() / mreadings
	r.peakRSSMB = float64(use.hwmKB) / 1024
	return r, nil
}

// checkAlerts compares the daemon's alert log and what the SSE consumer
// received with the reference transcript, and derives the alert latencies.
func (w workload) checkAlerts(hc *http.Client, baseURL string, consumer *sseConsumer, ref reference, posts []postResult, s *setup, r *repResult) error {
	if consumer == nil {
		return nil
	}
	var logged []serve.Alert
	if err := getJSON(hc, baseURL+"/alerts?since=0", &logged); err != nil {
		return err
	}
	want, err := canon(ref.alerts)
	if err != nil {
		return err
	}
	if len(want) == 0 {
		want = []serve.Alert{}
	}
	if !reflect.DeepEqual(logged, want) {
		r.fail(1, "alert log (%d alerts) differs from the reference transcript (%d alerts)", len(logged), len(want))
	}
	consumer.waitFor(len(want), 5*time.Second)
	arrivals, err := consumer.stop()
	if err != nil {
		return err
	}
	seen := make([]int, len(want))
	dup, stray := 0, 0
	for _, a := range arrivals {
		if a.alert.Seq < 0 || a.alert.Seq >= len(want) {
			stray++
			continue
		}
		if seen[a.alert.Seq]++; seen[a.alert.Seq] > 1 {
			dup++
		}
	}
	missing := 0
	for _, n := range seen {
		if n == 0 {
			missing++
		}
	}
	if bad := missing + dup + stray; bad > 0 {
		r.fail(bad, "SSE consumer: %d alerts missing, %d duplicated, %d unknown", missing, dup, stray)
	}

	iv := model.Epoch(w.World.Interval)
	ckptOf := checkpointOfSeq(ref.perCheckpoint)
	trig := triggerIndex(s.bodies, iv, len(ref.perCheckpoint))
	r.alertMS = alertLatencies(arrivals, ckptOf, trig, posts)

	if w.Rate > 0 {
		// No growing backlog: the last checkpoint a request triggered must
		// have delivered its alerts shortly after the schedule ended.
		lastLive := -1
		for k, t := range trig {
			if t >= 0 {
				lastLive = k
			}
		}
		limit := posts[len(posts)-1].due.Add(backlogLimit)
		for _, a := range arrivals {
			if seq := a.alert.Seq; seq >= 0 && seq < len(ckptOf) && ckptOf[seq] == lastLive && a.at.After(limit) {
				r.fail(1, "invalid run: checkpoint %d's alerts arrived %s after the last request was due (limit %s): backlog was growing",
					lastLive, a.at.Sub(limit)+backlogLimit, backlogLimit)
				break
			}
		}
	}
	return nil
}

// pollReplLag samples the standby's byte lag four times a second until the
// returned stop function is called. The sample is the primary's own
// repl.last_batch_bytes — how much the standby's latest poll had to ship,
// i.e. how far behind it was. (The standby's shipped_bytes also counts
// snapshot chunks, so subtracting it from the primary's WAL horizon does
// not give a lag.)
func pollReplLag(primaryURL string) (stop func() []float64) {
	quit := make(chan struct{})
	done := make(chan []float64)
	go func() {
		hc := &http.Client{Timeout: 2 * time.Second}
		defer hc.CloseIdleConnections()
		var kb []float64
		t := time.NewTicker(250 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-quit:
				done <- kb
				return
			case <-t.C:
			}
			var st serve.Stats
			if getJSON(hc, primaryURL+"/stats", &st) == nil && st.Repl != nil {
				kb = append(kb, float64(st.Repl.LastBatchBytes)/1024)
			}
		}
	}()
	return func() []float64 {
		close(quit)
		return <-done
	}
}
