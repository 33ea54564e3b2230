package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"rfidtrack/internal/dist"
	"rfidtrack/internal/model"
	"rfidtrack/internal/rfinfer"
	"rfidtrack/internal/sim"
	"rfidtrack/internal/wal"
)

// startFailoverStandby boots a warm Standby for peer slot forPeer on its
// own loopback listener, shipping from the harness peer's front door into
// dir. Its Build closure mirrors the harness's per-peer config, so the
// promoted server runs exactly the deployment the dead peer ran.
func startFailoverStandby(t *testing.T, h *peerHarness, w *sim.World, forPeer int, dir string,
	cfgMut func(p int, cfg *Config), ship, deadAfter time.Duration) (*Standby, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	self := "http://" + ln.Addr().String()
	st, err := NewStandby(StandbyConfig{
		Primary:      h.urls[forPeer],
		Dir:          dir,
		Self:         self,
		ForPeer:      forPeer,
		Peers:        h.urls,
		ShipInterval: ship,
		DeadAfter:    deadAfter,
		Build: func() (*dist.Cluster, Config, error) {
			cfg := Config{Interval: 300, Horizon: w.Epochs, Peers: h.urls, Self: forPeer}
			if cfgMut != nil {
				cfgMut(forPeer, &cfg)
			}
			return dist.NewCluster(w, peerTestStrategy, rfinfer.DefaultConfig()), cfg, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: st.Handler()}
	go hs.Serve(ln)
	t.Cleanup(func() { hs.Close() })
	return st, self
}

// waitCaughtUp blocks until the standby's local horizon reaches the
// primary's CURRENT WAL horizon — replication lag zero at a quiesced
// primary. The standby's own status pair (shipped vs primary bytes) is
// consistent only as of its last completed poll, so checking it alone can
// declare "caught up" against a mid-stream horizon the primary has since
// appended past; anchoring on the live server's appended bytes closes
// that race. A planned failover drill must do the same (see
// OPERATIONS.md): compare GET /repl/status against the primary's live
// GET /stats horizon, not against the standby's own heartbeat.
func waitCaughtUp(t *testing.T, st *Standby, primary *Server) {
	t.Helper()
	live := primary.Stats().WAL.AppendedBytes
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		ss := st.Status()
		if ss.PrimaryWALBytes >= live && ss.ShippedBytes >= ss.PrimaryWALBytes {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("standby never caught up to live horizon %d: %+v", live, st.Status())
}

// promoteHTTP promotes a standby through its public endpoint, the way an
// operator (or the failover smoke harness) does.
func promoteHTTP(t *testing.T, standbyURL string) StandbyStatus {
	t.Helper()
	resp, err := http.Post(standbyURL+"/promote", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var ss StandbyStatus
	if err := checkStatus(resp, &ss); err != nil {
		t.Fatalf("promote: %v", err)
	}
	if !ss.Promoted {
		t.Fatalf("promote returned %+v, want Promoted", ss)
	}
	return ss
}

// shutdownPair drains the given servers concurrently (one peer's final
// checkpoints can block on migrations another only sends during its own
// drain).
func shutdownPair(t *testing.T, srvs ...*Server) {
	t.Helper()
	errs := make([]error, len(srvs))
	var wg sync.WaitGroup
	for i, s := range srvs {
		wg.Add(1)
		go func(i int, s *Server) {
			defer wg.Done()
			errs[i] = s.Shutdown(context.Background())
		}(i, s)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("shutdown server %d: %v", i, err)
		}
	}
}

// urlAlerts unions the alert logs behind an explicit URL list (the
// post-failover cluster's slot URLs differ from the harness's).
func urlAlerts(t *testing.T, urls []string) []Alert {
	t.Helper()
	var all []Alert
	for p, u := range urls {
		alerts, err := (&Client{BaseURL: u}).Alerts(0, 0)
		if err != nil {
			t.Fatalf("peer %d alerts: %v", p, err)
		}
		all = append(all, alerts...)
	}
	return all
}

// ingestFrom replays events[from:] in producer-sized batches.
func ingestFrom(t *testing.T, mc *MultiClient, events []Event, from int) {
	t.Helper()
	for i := from; i < len(events); i += 256 {
		end := min(i+256, len(events))
		if err := mc.Ingest(events[i:end]); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFailoverMatchesSequential is the PR's headline determinism
// contract: a strict durable two-peer cluster with a warm standby
// shadowing peer 0 loses that peer to a crash-stop at a randomized point
// mid-stream; the standby is promoted over its shipped WAL, takes over
// the slot (URL rebind + retained-migration re-delivery via gossip), the
// producer resends its stream (idempotent at-least-once ingest), and the
// drained cluster's merged Result and alert sets must still be
// bit-identical to the uninterrupted sequential reference — at 1 worker
// and at GOMAXPROCS workers.
func TestFailoverMatchesSequential(t *testing.T) {
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
	for s := range w.Sites {
		wantAlerts[s] = ref.SiteQuery(s).AlertedTags()
	}
	events := WorldEvents(w, ref.Departures())

	seed := time.Now().UnixNano()
	rng := rand.New(rand.NewSource(seed))
	t.Logf("randomized kill points use seed %d", seed)

	workerRuns := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		workerRuns = append(workerRuns, n)
	}
	for _, workers := range workerRuns {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			// Kill somewhere in the middle half of the stream, different
			// every run (the seed above reproduces a failure).
			cutT := model.Epoch(float64(w.Epochs) * (0.25 + 0.5*rng.Float64()))
			runFailoverCycle(t, w, events, want, wantAlerts, cutT, workers)
		})
	}
}

// TestFailoverTwoSnapshotsOneBoundary promotes a standby that shipped two
// snapshots taken at one checkpoint boundary — a forced snapshot (POST
// /snapshot) before the next checkpoint — with readings ingested between
// them: the promoted server must still finish the stream with the
// uninterrupted run's Result and alert log, so the readings logged between
// the snapshots reached the standby.
func TestFailoverTwoSnapshotsOneBoundary(t *testing.T) {
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
			wantAlerts = append(wantAlerts, Alert{Site: s, Tag: m.Tag, First: m.First, Last: m.Last,
				Values: append([]float64(nil), m.Values...), Pattern: ref.SiteQuery(s).PatternKey()})
		}
	}
	events := WorldEvents(w, ref.Departures())

	build := func(dir string) (*dist.Cluster, Config, error) {
		return dist.NewCluster(w, dist.MigrateWeights, rfinfer.DefaultConfig()), Config{Interval: interval,
			Horizon: w.Epochs, Query: exposureQuery(w, interval), DataDir: dir, Strict: true, SnapshotEvery: -1}, nil
	}
	c, cfg, _ := build(t.TempDir())
	srv, err := New(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	sdir := t.TempDir()
	st, err := NewStandby(StandbyConfig{Primary: ts.URL, Dir: sdir, ShipInterval: 5 * time.Millisecond,
		Build: func() (*dist.Cluster, Config, error) { return build(sdir) }})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	// shipped waits until the standby has committed generation gen.
	shipped := func(gen int) {
		t.Helper()
		for deadline := time.Now().Add(20 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
			b, err := os.ReadFile(filepath.Join(sdir, "MANIFEST"))
			var m wal.Manifest
			if err == nil && json.Unmarshal(b, &m) == nil && m.Gen == gen {
				return
			}
		}
		t.Fatalf("standby never committed generation %d: %+v", gen, st.Status())
	}

	// Stream three checkpoints and half an interval, snapshot once the
	// third checkpoint has run, ship it, stream the rest of the interval,
	// and snapshot again at the same boundary.
	const checkpoints = 3
	cut := splitAt(events, checkpoints*interval+interval/2)
	rest := splitAt(events, (checkpoints+1)*interval)
	streamEvents(t, srv, events[:cut])
	for deadline := time.Now().Add(20 * time.Second); srv.Stats().Feed.Checkpoints < checkpoints; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("primary ran %d checkpoints, want %d", srv.Stats().Feed.Checkpoints, checkpoints)
		}
	}
	m1, err := srv.SnapshotNow()
	if err != nil {
		t.Fatal(err)
	}
	shipped(m1.Gen)
	streamEvents(t, srv, events[cut:rest])
	m2, err := srv.SnapshotNow()
	if err != nil {
		t.Fatal(err)
	}
	if m1.Boundary != m2.Boundary || cut == rest {
		t.Fatalf("snapshots at boundaries %d and %d with %d events between; want one boundary and some events",
			m1.Boundary, m2.Boundary, rest-cut)
	}
	shipped(m2.Gen)
	waitCaughtUp(t, st, srv)
	if err := srv.Abort(); err != nil {
		t.Fatal(err)
	}

	if err := st.Promote(); err != nil {
		t.Fatalf("promote: %v", err)
	}
	promoted := st.Server()
	streamEvents(t, promoted, events[rest:])
	if err := promoted.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := promoted.Result(); !reflect.DeepEqual(got, want) {
		t.Errorf("promoted Result diverged from the uninterrupted reference\n got: %+v\nwant: %+v", got, want)
	}
	if got, wantN := normAlerts(promoted.AlertsSince(0, 0)), normAlerts(wantAlerts); !reflect.DeepEqual(got, wantN) {
		t.Errorf("promoted alert log diverged\n got: %+v\nwant: %+v", got, wantN)
	}
}

// runFailoverCycle runs one complete kill-and-promote drill over a fresh
// two-peer harness with a warm standby on slot 0: ingest to cutT, wait
// for the shipped copy to reach the primary's fsynced horizon, crash-stop
// the primary, promote over HTTP, resend the whole stream through the
// rebound slot, drain, and require the merged Result and alert sets to
// match the uninterrupted reference exactly.
func runFailoverCycle(t *testing.T, w *sim.World, events []Event, want dist.Result,
	wantAlerts []map[model.TagID]bool, cutT model.Epoch, workers int) {
	const interval = model.Epoch(300)
	cut := 0
	for cut < len(events) && events[cut].Time() < cutT {
		cut++
	}
	t.Logf("killing primary after event %d/%d (stream time %d)", cut, len(events), cutT)

	peerTestStrategy = dist.MigrateWeights
	dirs := []string{t.TempDir(), t.TempDir()}
	cfgMut := func(p int, cfg *Config) {
		cfg.Query = exposureQuery(w, interval)
		cfg.DataDir = dirs[p]
		cfg.SnapshotEvery = 1
		cfg.Strict = true
		cfg.Workers = workers
		cfg.PeerRetryWindow = 30 * time.Second
	}
	h := startPeerHarness(t, w, 2, cfgMut)
	st, standbyURL := startFailoverStandby(t, h, w, 0, t.TempDir(), cfgMut, 5*time.Millisecond, 0)

	mc := NewMultiClient(h.urls, h.owner)
	ingestFrom(t, mc, events[:cut], 0)

	// Let the shipped copy reach the primary's fsynced horizon, then
	// crash-stop the primary with no warning.
	waitCaughtUp(t, st, h.srvs[0])
	h.kill(t, 0)

	promoteHTTP(t, standbyURL)
	promoted := st.Server()
	if promoted == nil {
		t.Fatal("promoted standby has no server")
	}

	// The producer repoints slot 0 at the standby and resends its whole
	// stream: at-least-once idempotent ingest makes the full resend
	// Result-preserving, and it closes the only gap promotion cannot —
	// events the primary accepted after its last ship.
	mc2 := NewMultiClient([]string{standbyURL, h.urls[1]}, h.owner)
	ingestFrom(t, mc2, events, 0)

	shutdownPair(t, promoted, h.srvs[1])

	got, err := mc2.MergedResult()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("failed-over cluster's merged Result diverged from sequential reference\n got: %+v\nwant: %+v", got, want)
	}
	gotAlerts := alertTagSets(len(w.Sites), urlAlerts(t, []string{standbyURL, h.urls[1]}))
	if !reflect.DeepEqual(gotAlerts, wantAlerts) {
		t.Errorf("failed-over cluster's alert sets diverged\n got: %v\nwant: %v", gotAlerts, wantAlerts)
	}
	if fenced := h.srvs[1].Stats().Peers.FencedArrivals; fenced != 0 {
		t.Errorf("healthy peer fenced %d arrivals from the promoted standby", fenced)
	}
}

// TestFailoverSoak (make soak; gated behind RFID_SOAK=1, not part of make
// ci) hammers the kill-and-promote drill in a loop: for RFID_SOAK_SECONDS
// (default 60) it keeps running full failover cycles at randomized kill
// points, each one required to converge bit-identically. A flaky
// promotion, ship race or fencing hole shows up here long before it shows
// up in production.
func TestFailoverSoak(t *testing.T) {
	if os.Getenv("RFID_SOAK") == "" {
		t.Skip("set RFID_SOAK=1 (make soak) to run the failover soak loop")
	}
	secs := 60
	if v := os.Getenv("RFID_SOAK_SECONDS"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			secs = n
		}
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
	for s := range w.Sites {
		wantAlerts[s] = ref.SiteQuery(s).AlertedTags()
	}
	events := WorldEvents(w, ref.Departures())

	seed := time.Now().UnixNano()
	rng := rand.New(rand.NewSource(seed))
	t.Logf("soak seed %d", seed)
	deadline := time.Now().Add(time.Duration(secs) * time.Second)
	cycles := 0
	for time.Now().Before(deadline) && !t.Failed() {
		cutT := model.Epoch(float64(w.Epochs) * (0.15 + 0.7*rng.Float64()))
		workers := 1 + rng.Intn(max(runtime.GOMAXPROCS(0), 1))
		runFailoverCycle(t, w, events, want, wantAlerts, cutT, workers)
		cycles++
	}
	t.Logf("soak: %d failover cycles converged in %ds", cycles, secs)
}

// TestPromotionIdempotentResend pins the producer-side recovery recipe:
// after a promotion, a producer that lost track of what was delivered may
// resend its entire stream from the beginning — twice, even — and the
// merged Result and alert sets still match the sequential reference
// exactly (reading masks merge, departures dedup, sealed intervals drop
// re-sent prefixes as late without counting them into the Result).
func TestPromotionIdempotentResend(t *testing.T) {
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
	events := WorldEvents(w, ref.Departures())
	cut := 0
	for cut < len(events) && events[cut].Time() < w.Epochs/2 {
		cut++
	}

	peerTestStrategy = dist.MigrateWeights
	dirs := []string{t.TempDir(), t.TempDir()}
	cfgMut := func(p int, cfg *Config) {
		cfg.Query = exposureQuery(w, interval)
		cfg.DataDir = dirs[p]
		cfg.SnapshotEvery = 1
		cfg.Strict = true
		cfg.PeerRetryWindow = 30 * time.Second
	}
	h := startPeerHarness(t, w, 2, cfgMut)
	st, standbyURL := startFailoverStandby(t, h, w, 0, t.TempDir(), cfgMut, 5*time.Millisecond, 0)

	mc := NewMultiClient(h.urls, h.owner)
	ingestFrom(t, mc, events[:cut], 0)
	waitCaughtUp(t, st, h.srvs[0])
	h.kill(t, 0)
	if err := st.Promote(); err != nil {
		t.Fatalf("promote: %v", err)
	}
	// Promote is idempotent: a second operator hitting the endpoint gets
	// the same (successful) outcome, not a second recovery.
	promoteHTTP(t, standbyURL)

	mc2 := NewMultiClient([]string{standbyURL, h.urls[1]}, h.owner)
	ingestFrom(t, mc2, events, 0) // full resend
	ingestFrom(t, mc2, events, 0) // and again

	shutdownPair(t, st.Server(), h.srvs[1])
	got, err := mc2.MergedResult()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("double-resent cluster's merged Result diverged\n got: %+v\nwant: %+v", got, want)
	}
}

// walErrOf reads a server's latched WAL/fence failure.
func walErrOf(s *Server) error {
	s.walErrMu.Lock()
	defer s.walErrMu.Unlock()
	return s.walErr
}

// TestStalePrimaryFenced is the split-brain guard: after a standby takes
// over slot 0 at a higher fence epoch, the old primary restarts over its
// original directory (a partitioned zombie that never heard it was
// replaced) and tries to keep acting as the slot's owner. Its migration
// sends must be refused with 409/ErrStaleEpoch by the surviving peer, the
// refusal must latch the zombie unhealthy, and the real cluster must
// still converge to the sequential reference — the zombie corrupts
// nothing.
func TestStalePrimaryFenced(t *testing.T) {
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
	events := WorldEvents(w, ref.Departures())
	cut := 0
	for cut < len(events) && events[cut].Time() < w.Epochs/2 {
		cut++
	}

	peerTestStrategy = dist.MigrateWeights
	dirs := []string{t.TempDir(), t.TempDir()}
	cfgMut := func(p int, cfg *Config) {
		cfg.Query = exposureQuery(w, interval)
		cfg.DataDir = dirs[p]
		cfg.SnapshotEvery = 1
		cfg.Strict = true
		cfg.PeerRetryWindow = 10 * time.Second
	}
	h := startPeerHarness(t, w, 2, cfgMut)
	st, standbyURL := startFailoverStandby(t, h, w, 0, t.TempDir(), cfgMut, 5*time.Millisecond, 0)

	mc := NewMultiClient(h.urls, h.owner)
	ingestFrom(t, mc, events[:cut], 0)
	waitCaughtUp(t, st, h.srvs[0])
	h.kill(t, 0)
	if err := st.Promote(); err != nil {
		t.Fatalf("promote: %v", err)
	}

	// The zombie: the dead primary comes back over its own directory at
	// fence epoch 0, still configured with the original peer URLs.
	h.startPeer(t, w, 0, cfgMut)
	zombie := h.srvs[0]

	// The zombie's first outbound migration — a weights frame for a
	// departure into the survivor's territory, sent with epoch 0 against a
	// slot the survivor knows is fenced at a higher epoch — is refused
	// with 409, surfaced as the typed, permanent ErrStaleEpoch.
	var item model.TagID = -1
	for i := range w.Sites[0].Tags {
		if w.Sites[0].Tags[i].Kind == model.KindItem {
			item = w.Sites[0].Tags[i].ID
			break
		}
	}
	if item < 0 {
		t.Fatal("world has no item tags")
	}
	toSite := -1
	for s, p := range h.owner {
		if p == 1 {
			toSite = s
			break
		}
	}
	sendErr := zombie.peers.Send(dist.Departure{Object: item, From: 0, To: toSite, At: 10}, []byte("zombie payload"))
	if !errors.Is(sendErr, ErrStaleEpoch) {
		t.Fatalf("zombie migration send = %v, want ErrStaleEpoch", sendErr)
	}
	if fenced := h.srvs[1].Stats().Peers.FencedArrivals; fenced == 0 {
		t.Error("surviving peer counted no fenced arrivals")
	}

	// Hearing its own slot announced at a higher epoch — the reply any
	// gossip exchange with a surviving peer carries — makes the zombie
	// fence ITSELF unhealthy rather than keep acting as an owner it no
	// longer is.
	zombie.mergeGossip(GossipMsg{From: 1, Entries: []GossipEntry{
		{URL: standbyURL, Epoch: 1}, {URL: h.urls[1]},
	}})
	if !zombie.failed.Load() {
		t.Error("superseded zombie did not latch unhealthy")
	}
	if err := walErrOf(zombie); !errors.Is(err, ErrStaleEpoch) {
		t.Errorf("superseded zombie latched %v, want ErrStaleEpoch", err)
	}
	h.handlers[0].Store(nil)
	zombie.Abort() // crash-stop the fenced zombie; its error state is expected

	// The real cluster, fed the full stream through the promoted slot,
	// still converges exactly: the zombie injected nothing.
	mc2 := NewMultiClient([]string{standbyURL, h.urls[1]}, h.owner)
	ingestFrom(t, mc2, events, 0)
	shutdownPair(t, st.Server(), h.srvs[1])
	got, err := mc2.MergedResult()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("cluster with a fenced zombie diverged from reference\n got: %+v\nwant: %+v", got, want)
	}
}
