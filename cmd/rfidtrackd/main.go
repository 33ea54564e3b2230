// Command rfidtrackd is the online RFID tracking daemon: the paper's
// continuously-running deployment (Section 5.3) as a long-lived service
// instead of a batch replay.
//
// With -data-dir the daemon is durable: accepted events append to a
// CRC-framed write-ahead log and full-state snapshots commit at
// Δ-checkpoint boundaries; on SIGINT/SIGTERM the final drain ends with a
// snapshot, and a restart over the same directory recovers the exact
// pre-stop state — after a kill -9, the snapshot plus the WAL tail
// reconstruct it bit-identically (see OPERATIONS.md for the runbook).
//
// The daemon is parameterized by a deployment layout — the same simulator
// flags rfidsim takes, so `rfidsim -serve` against the same flags streams
// a matching world. Edge readers POST readings and departure events as
// JSON lines to /ingest; every Δ seconds of stream time the scheduler
// re-runs RFINFER at every site and feeds the per-site exposure queries;
// alerts stream out over /alerts (long-poll) and /alerts/stream (SSE);
// /stats, /healthz and /snapshot expose the runtime. On SIGINT/SIGTERM
// the daemon drains every queued batch and in-flight interval before
// exiting, so no accepted reading is lost.
//
// Usage:
//
//	rfidtrackd -addr :8080 -sites 3 -path 2 -epochs 2400 &
//	rfidsim -sites 3 -path 2 -epochs 2400 -serve http://localhost:8080
//	curl localhost:8080/stats
//
//	rfidtrackd -demo     # self-contained: serve + stream + drain + exit
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os/signal"
	"runtime/debug"
	"runtime/metrics"
	"strings"
	"sync"
	"syscall"
	"time"

	"rfidtrack/internal/dist"
	"rfidtrack/internal/model"
	"rfidtrack/internal/rfinfer"
	"rfidtrack/internal/serve"
	"rfidtrack/internal/sim"
	"rfidtrack/internal/wal"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "HTTP listen address")
		interval = flag.Int("interval", 300, "Δ between inference checkpoints (stream seconds)")
		strategy = flag.String("strategy", "weights", "migration strategy: none|weights|readings|full")
		workers  = flag.Int("workers", 0, "total CPU budget of a checkpoint: one worker pool shared by the site loop and every site's inference (0 = GOMAXPROCS)")
		queue    = flag.Int("queue", 8192, "per-site ingest shard backlog in readings (backpressure bound while a checkpoint is pending)")
		wmark    = flag.Int("watermark", 0, "stream-time slack (epochs) before closing a checkpoint; set ~interval when several readers post concurrently")
		noQuery  = flag.Bool("no-query", false, "do not attach the per-site exposure query")
		demo     = flag.Bool("demo", false, "self-drive: stream the deployment's own world over HTTP, print a summary, exit")
		pprof    = flag.String("pprof", "", "side listener for net/http/pprof (e.g. localhost:6060; empty = off); see PERFORMANCE.md for profiling a live checkpoint")

		peers     = flag.String("peers", "", "comma-separated base URLs of every cluster peer, this daemon included (e.g. http://a:8080,http://b:8080); empty = single-node")
		self      = flag.Int("self", 0, "this daemon's index into -peers")
		siteMap   = flag.String("site-map", "", "comma-separated site->peer assignment, one entry per site (default: contiguous blocks)")
		peerRetry = flag.Duration("peer-retry", 2*time.Minute, "how long migration sends retry against an unreachable peer before failing the checkpoint")
		gossipInt = flag.Duration("gossip-interval", 0, "epoch-gossip exchange cadence for clustered daemons (0 = off): keeps quiet peers' checkpoint clocks advancing and ages the failure-detection table; pair with a -watermark covering producer skew")

		standbyFor = flag.String("standby-for", "", "run as a warm standby of the given primary base URL: ship its WAL into -data-dir, promote on POST /promote or -dead-after silence (requires -data-dir; -self names the slot taken over)")
		selfURL    = flag.String("self-url", "", "this standby's externally reachable base URL, announced to the cluster on promotion (default http://<listen address>)")
		shipEvery  = flag.Duration("ship-interval", 250*time.Millisecond, "standby WAL-shipping poll cadence (bounds replication lag and heartbeat resolution)")
		deadAfter  = flag.Duration("dead-after", 0, "standby auto-promotion threshold: promote once the primary has been silent this long and no surviving peer has heard from it (0 = manual promotion only)")

		dataDir  = flag.String("data-dir", "", "durable-state directory: WAL + snapshots; restart with the same directory to recover (empty = memory-only)")
		fsync    = flag.Duration("fsync", 100*time.Millisecond, "WAL group-fsync cadence (<0 disables the timer; checkpoints and shutdown still sync)")
		strict   = flag.Bool("strict", false, "fsync before acknowledging every ingest request: no acknowledged event can be lost to a crash")
		snapEach = flag.Int("snapshot-every", 16, "checkpoints between automatic durable snapshots (<0 = only POST /snapshot and shutdown)")

		epochs  = flag.Int("epochs", 2400, "deployment horizon in seconds")
		sites   = flag.Int("sites", 2, "number of warehouses")
		path    = flag.Int("path", 2, "warehouses each pallet visits")
		items   = flag.Int("items", 4, "items per case")
		shelves = flag.Int("shelves", 8, "shelf readers per warehouse")
		rr      = flag.Float64("rr", 0.8, "main read rate")
		anomaly = flag.Int("anomaly", 120, "containment change interval (0 = none)")
		seed    = flag.Int64("seed", 1, "deployment seed")
	)
	flag.Parse()
	started := time.Now()
	release := holdCollector()

	strat, err := parseStrategy(*strategy)
	if err != nil {
		log.Fatal(err)
	}

	cfg := sim.DefaultConfig()
	cfg.Epochs = model.Epoch(*epochs)
	cfg.Warehouses = *sites
	cfg.PathLength = *path
	cfg.ItemsPerCase = *items
	cfg.Shelves = *shelves
	cfg.RR = *rr
	cfg.AnomalyEvery = *anomaly
	cfg.Seed = *seed
	dep := wal.Deployment{Sim: cfg, Interval: model.Epoch(*interval), Strategy: strat.String(), Query: !*noQuery}
	world, baseline, err := openWorld(dep, *dataDir, *demo)
	if err != nil {
		log.Fatal(err)
	}
	layoutTime := time.Since(started)
	for s, tr := range world.Sites {
		fmt.Printf("site %d: %d readers, %d cases, %d items\n",
			s, len(tr.Readers), len(tr.Cases()), len(tr.Items()))
	}
	newCluster := func() *dist.Cluster {
		c := dist.NewCluster(world, strat, rfinfer.DefaultConfig())
		c.Baseline = baseline
		return c
	}
	scfg := serve.Config{
		Interval:      model.Epoch(*interval),
		Horizon:       world.Epochs,
		QueueSize:     *queue,
		Workers:       *workers,
		Watermark:     model.Epoch(*wmark),
		DataDir:       *dataDir,
		SyncEvery:     *fsync,
		Strict:        *strict,
		SnapshotEvery: *snapEach,
	}
	if !*noQuery {
		scfg.Query = dist.ColdChainQuery(world, scfg.Interval)
	}
	if *peers != "" {
		scfg.Peers = splitPeers(*peers)
		scfg.Self = *self
		scfg.PeerRetryWindow = *peerRetry
		scfg.GossipInterval = *gossipInt
		if *siteMap != "" {
			owner, err := dist.ParseSiteMap(*siteMap, len(world.Sites), len(scfg.Peers))
			if err != nil {
				log.Fatal(err)
			}
			scfg.SiteOwner = owner
		}
	}
	if *standbyFor != "" {
		runStandby(newCluster, scfg, *standbyFor, *selfURL, *addr, *self, *shipEvery, *deadAfter, release)
		return
	}
	built := time.Now()
	cluster := newCluster()
	enginesTime := time.Since(built)
	opened := time.Now()
	srv, err := serve.New(cluster, scfg)
	if err != nil {
		log.Fatal(err)
	}
	newTime := time.Since(opened)
	startGCs := gcCycles()
	release()
	if len(scfg.Peers) > 1 {
		owner := scfg.SiteOwner
		if owner == nil {
			owner = dist.DefaultSiteMap(len(world.Sites), len(scfg.Peers))
		}
		var owned []int
		for s, p := range owner {
			if p == *self {
				owned = append(owned, s)
			}
		}
		fmt.Printf("cluster peer %d of %d, owning sites %v (site map %v)\n", *self, len(scfg.Peers), owned, owner)
	}
	if *dataDir != "" {
		st := srv.Stats()
		stages := fmt.Sprintf("start-up: layout %d ms, engines %d ms, serve.New %d ms (snapshot load %.0f ms, replay %.0f ms), gc %d",
			layoutTime.Milliseconds(), enginesTime.Milliseconds(), newTime.Milliseconds(), st.WAL.LoadStateMS, st.WAL.ReplayMS, startGCs)
		if st.WAL.Replayed > 0 || st.WAL.LastSnapshot >= 0 {
			fmt.Printf("recovered from %s: snapshot boundary %d, %d WAL records replayed, resuming %d checkpoints in; %s\n",
				*dataDir, st.WAL.LastSnapshot, st.WAL.Replayed, st.Feed.Checkpoints, stages)
		} else {
			fmt.Printf("durable state in %s (fsync %s, snapshot every %d checkpoints); %s\n", *dataDir, *fsync, *snapEach, stages)
		}
	}

	// Print alerts as the continuous queries raise them.
	sub := srv.Subscribe()
	subDone := make(chan struct{})
	go func() {
		defer close(subDone)
		for a := range sub.C {
			fmt.Printf("ALERT #%d site=%d tag=%d exposed %d..%d\n", a.Seq, a.Site, a.Tag, a.First, a.Last)
		}
	}()

	// The profiler gets its own listener so the ingest surface stays
	// exactly the documented API and an operator can firewall the two
	// separately. net/http/pprof registers on http.DefaultServeMux.
	if *pprof != "" {
		pln, err := net.Listen("tcp", *pprof)
		if err != nil {
			log.Fatalf("pprof listener: %v", err)
		}
		fmt.Printf("pprof on http://%s/debug/pprof/\n", pln.Addr())
		go func() {
			if err := http.Serve(pln, nil); err != nil {
				log.Printf("pprof serve: %v", err)
			}
		}()
	}

	listenAddr := *addr
	if *demo {
		listenAddr = "127.0.0.1:0" // never collide in demo mode
	}
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		log.Fatal(err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go func() {
		if err := httpSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
			log.Printf("http serve: %v", err)
		}
	}()
	fmt.Printf("rfidtrackd listening on %s (Δ=%ds, strategy=%s)\n", ln.Addr(), *interval, strat)

	if *demo {
		if err := runDemo(world, cluster, "http://"+ln.Addr().String()); err != nil {
			log.Fatal(err)
		}
	} else {
		hint := *addr
		if hint == "" {
			hint = ln.Addr().String()
		} else if hint[0] == ':' {
			hint = "localhost" + hint
		}
		fmt.Printf("stream with: rfidsim -sites %d -path %d -epochs %d -items %d -rr %g -anomaly %d -seed %d -serve http://%s\n",
			*sites, *path, *epochs, *items, *rr, *anomaly, *seed, hint)
		ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
		<-ctx.Done()
		stop()
		fmt.Println("signal received; draining")
	}

	// Graceful shutdown: drain the pipeline first — that closes the alert
	// log, which is what makes attached SSE/long-poll handlers return —
	// then stop the HTTP server. The reverse order would leave
	// httpSrv.Shutdown waiting the full timeout on any streaming client.
	shutCtx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil && err != serve.ErrClosed {
		log.Printf("drain: %v", err)
	}
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	<-subDone

	st := srv.Stats()
	res := srv.Result()
	fmt.Printf("drained: %d readings observed over %d checkpoints (%d late, %d invalid)\n",
		st.Feed.Observed, st.Feed.Checkpoints, st.Feed.Late, st.Invalid)
	fmt.Printf("errors: containment %.2f%%, location %.2f%%; migrated %d bytes in %d messages (centralized would ship %d)\n",
		res.ContErr.Rate(), res.LocErr.Rate(), res.Costs.Bytes, res.Costs.Messages, res.CentralizedBytes)
	fmt.Printf("alerts: %d; mean checkpoint latency %s\n", st.Alerts, meanLatency(st.Sched))
	fmt.Printf("incremental: %d dirty site-checkpoints, %d groups recomputed, %d skipped clean\n",
		st.Sched.DirtySites, st.Sched.DirtyGroups, st.Sched.SkippedGroups)
	fmt.Printf("delivery: %d matches, slowest consumer %d behind at exit\n",
		st.Delivery.Enqueued, st.Delivery.SlowestLag)
	if st.WAL != nil {
		fmt.Printf("durable: %d WAL records (%d bytes), %d snapshots, final snapshot at boundary %d\n",
			st.WAL.Appended, st.WAL.AppendedBytes, st.WAL.Snapshots, st.WAL.LastSnapshot)
	}
}

// openWorld builds the world the deployment flags describe, and the
// resolver of its centralized baseline (dist.Cluster.Baseline).
//
// Readings arrive from the readers, so no start simulates them except -demo,
// which streams the deployment's own world: every other start — first,
// restart, memory-only or standby — builds sim.Layout, a few percent of
// Generate's cost. A data directory that holds a deployment record must have
// been written by the same deployment — anything else is refused, naming the
// difference — and a directory without one (fresh, written by an earlier
// release, or a standby's mirror) gets its record.
//
// The baseline is the one figure derived from the simulated readings, and
// compressing them costs more than generating them, so it is resolved when a
// Result first asks: from the record, or else computed — over a full world,
// generated for the purpose after a layout-only start — and added to the
// record, so that no later start pays for it again.
func openWorld(dep wal.Deployment, dataDir string, needReadings bool) (*sim.World, func() int, error) {
	if dataDir != "" {
		recorded, err := wal.ReadDeployment(dataDir)
		if err != nil {
			return nil, nil, err
		}
		if recorded == nil {
			if err := wal.WriteDeployment(dataDir, dep); err != nil {
				return nil, nil, err
			}
		} else if diff := recorded.Mismatch(dep); diff != "" {
			return nil, nil, fmt.Errorf("%s holds another deployment's state (%s): restart with the flags it was created with, or use a fresh -data-dir", dataDir, diff)
		} else {
			dep.CentralizedBytes = recorded.CentralizedBytes
		}
	}
	layout := !needReadings
	generate := sim.Generate
	if layout {
		generate = sim.Layout
	}
	world, err := generate(dep.Sim)
	if err != nil {
		return nil, nil, err
	}
	baseline := sync.OnceValue(func() int {
		if dep.CentralizedBytes > 0 { // recorded; even an empty world compresses to a gzip header
			return dep.CentralizedBytes
		}
		full := world
		if layout {
			var err error
			if full, err = sim.Generate(dep.Sim); err != nil { // it validated for Layout
				log.Fatalf("regenerating the world for the centralized baseline: %v", err)
			}
		}
		dep.CentralizedBytes = dist.CentralizedBaseline(full)
		if dataDir != "" {
			if err := wal.WriteDeployment(dataDir, dep); err != nil {
				log.Printf("recording the centralized baseline: %v", err)
			}
		}
		return dep.CentralizedBytes
	})
	return world, baseline, nil
}

// holdCollector turns the garbage collector off for the start-up and returns
// the release that turns it back on. Nearly everything a start allocates —
// the layout, the engines, the recovered state — stays live, so collections
// before the daemon is ready would only rescan it while it grows and take a
// core from building it. The release restores the GC percent the hold
// replaced, so GOGC governs the daemon from ready onward; GOMEMLIMIT, if
// set, still bounds the start-up, since a memory limit collects even with
// the percent off. Only the first call of the release does anything.
func holdCollector() (release func()) {
	prior := debug.SetGCPercent(-1)
	return sync.OnceFunc(func() { debug.SetGCPercent(prior) })
}

// gcCycles returns the collector cycles the process has completed.
func gcCycles() uint64 {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// runStandby runs the daemon as a warm standby: it tails the primary's
// WAL over /repl/subscribe into scfg.DataDir and serves only the standby
// control surface (/repl/status, /promote, /healthz) until promotion, at
// which point the full ingest API comes up over the recovered state. The
// Build closure builds the cluster from the same deployment flags — over the
// world this process already holds — so the promoted inference state machine
// matches the one that died.
func runStandby(newCluster func() *dist.Cluster, scfg serve.Config, primary, selfURL, addr string, forPeer int, shipEvery, deadAfter time.Duration, release func()) {
	st, ln, err := startStandby(newCluster, scfg, primary, selfURL, addr, forPeer, shipEvery, deadAfter, release)
	if err != nil {
		log.Fatal(err)
	}
	httpSrv := &http.Server{Handler: st.Handler()}
	go func() {
		if err := httpSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
			log.Printf("http serve: %v", err)
		}
	}()
	fmt.Printf("rfidtrackd listening on %s (standby for %s, slot %d)\n", ln.Addr(), primary, forPeer)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	<-ctx.Done()
	stop()
	fmt.Println("signal received; stopping standby")

	shutCtx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if srv := st.Server(); srv != nil {
		// Promoted: drain like a normal daemon so accepted events land.
		if err := srv.Shutdown(shutCtx); err != nil && err != serve.ErrClosed {
			log.Printf("drain: %v", err)
		}
	} else if err := st.Close(); err != nil {
		log.Printf("standby close: %v", err)
	}
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	status := st.Status()
	fmt.Printf("standby exit: promoted=%v, shipped %d bytes, primary epoch %d at stream time %d\n",
		status.Promoted, status.ShippedBytes, status.PrimaryEpoch, status.PrimaryStream)
}

// startStandby is runStandby's start-up: it ends it with release, before
// listening on addr, so a standby that waits on its primary for hours does
// so with the collector on; then it starts the standby's ship loop.
func startStandby(newCluster func() *dist.Cluster, scfg serve.Config, primary, selfURL, addr string, forPeer int, shipEvery, deadAfter time.Duration, release func()) (*serve.Standby, net.Listener, error) {
	if scfg.DataDir == "" {
		return nil, nil, errors.New("standby mode requires -data-dir (the shipped WAL lands there)")
	}
	release()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	self := strings.TrimRight(selfURL, "/")
	if self == "" {
		self = "http://" + ln.Addr().String()
	}
	st, err := serve.NewStandby(serve.StandbyConfig{
		Primary:      strings.TrimRight(primary, "/"),
		Dir:          scfg.DataDir,
		Self:         self,
		ForPeer:      forPeer,
		Peers:        scfg.Peers,
		ShipInterval: shipEvery,
		DeadAfter:    deadAfter,
		Build: func() (*dist.Cluster, serve.Config, error) {
			return newCluster(), scfg, nil
		},
	})
	if err != nil {
		ln.Close()
		return nil, nil, err
	}
	return st, ln, nil
}

// runDemo streams the deployment's own simulated world into the daemon
// over its real HTTP surface, then drains and spot-checks the endpoints.
func runDemo(world *sim.World, cluster *dist.Cluster, baseURL string) error {
	client := &serve.Client{BaseURL: baseURL}
	events := serve.WorldEvents(world, cluster.Departures())
	for i := 0; i < len(events); i += 512 {
		end := min(i+512, len(events))
		if _, err := client.Ingest(events[i:end]); err != nil {
			return fmt.Errorf("demo ingest: %w", err)
		}
	}
	st, err := client.Drain(0)
	if err != nil {
		return fmt.Errorf("demo drain: %w", err)
	}
	fmt.Printf("demo: streamed %d events over HTTP, %d checkpoints run\n", len(events), st.Feed.Checkpoints)
	if _, err := client.Alerts(0, 0); err != nil {
		return fmt.Errorf("demo alerts: %w", err)
	}
	return nil
}

// splitPeers parses the -peers list, trimming whitespace and trailing
// slashes so "http://a:8080/" and "http://a:8080" address the same peer.
func splitPeers(spec string) []string {
	var urls []string
	for _, u := range strings.Split(spec, ",") {
		urls = append(urls, strings.TrimRight(strings.TrimSpace(u), "/"))
	}
	return urls
}

// parseStrategy maps the -strategy flag to a migration strategy.
func parseStrategy(s string) (dist.Strategy, error) {
	switch s {
	case "none":
		return dist.MigrateNone, nil
	case "weights":
		return dist.MigrateWeights, nil
	case "readings":
		return dist.MigrateReadings, nil
	case "full":
		return dist.MigrateFull, nil
	default:
		return 0, fmt.Errorf("unknown strategy %q (want none|weights|readings|full)", s)
	}
}

// meanLatency renders the average checkpoint latency.
func meanLatency(s serve.SchedStats) time.Duration {
	if s.Advances == 0 {
		return 0
	}
	return s.Total / time.Duration(s.Advances)
}
