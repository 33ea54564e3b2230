package serve

import (
	"bytes"
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rfidtrack/internal/dist"
	"rfidtrack/internal/model"
	"rfidtrack/internal/rfinfer"
	"rfidtrack/internal/sim"
	"rfidtrack/internal/stream"
)

// peerHarness is one live cluster of rfidtrackd runtimes on loopback
// sockets. The HTTP front door of each peer forwards to a swappable
// handler, so a peer can be killed and restarted without changing its URL
// — the other peers' retrying senders reconnect to the same address.
type peerHarness struct {
	urls     []string
	owner    []int
	srvs     []*Server
	handlers []atomic.Pointer[http.Handler]
	https    []*http.Server
}

// startPeerHarness boots one Server per peer over w with identical
// configs (mutated per peer by cfgMut, which must at least set DataDir
// when durability is wanted).
func startPeerHarness(t *testing.T, w *sim.World, peers int, cfgMut func(p int, cfg *Config)) *peerHarness {
	t.Helper()
	h := &peerHarness{
		owner:    dist.DefaultSiteMap(len(w.Sites), peers),
		handlers: make([]atomic.Pointer[http.Handler], peers),
		srvs:     make([]*Server, peers),
		https:    make([]*http.Server, peers),
	}
	lns := make([]net.Listener, peers)
	for p := 0; p < peers; p++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[p] = ln
		h.urls = append(h.urls, "http://"+ln.Addr().String())
	}
	for p := 0; p < peers; p++ {
		h.startPeer(t, w, p, cfgMut)
		p := p
		h.https[p] = &http.Server{Handler: http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if hd := h.handlers[p].Load(); hd != nil {
				(*hd).ServeHTTP(rw, r)
				return
			}
			writeJSON(rw, http.StatusServiceUnavailable, map[string]string{"error": "peer down"})
		})}
		go h.https[p].Serve(lns[p])
		t.Cleanup(func() { h.https[p].Close() })
	}
	return h
}

// startPeer builds (or rebuilds, after a kill) peer p's Server and swaps
// it into the front door.
func (h *peerHarness) startPeer(t *testing.T, w *sim.World, p int, cfgMut func(p int, cfg *Config)) {
	t.Helper()
	cfg := Config{
		Interval: 300,
		Horizon:  w.Epochs,
		Peers:    h.urls,
		Self:     p,
	}
	if cfgMut != nil {
		cfgMut(p, &cfg)
	}
	c := dist.NewCluster(w, peerTestStrategy, rfinfer.DefaultConfig())
	srv, err := New(c, cfg)
	if err != nil {
		t.Fatalf("peer %d: %v", p, err)
	}
	h.srvs[p] = srv
	hd := srv.Handler()
	h.handlers[p].Store(&hd)
}

// kill crash-stops peer p and takes its front door down: in-flight sends
// from other peers see connection-level 503s until the restart.
func (h *peerHarness) kill(t *testing.T, p int) {
	t.Helper()
	h.handlers[p].Store(nil)
	if err := h.srvs[p].Abort(); err != nil {
		t.Fatalf("abort peer %d: %v", p, err)
	}
}

// shutdownAll drains every peer concurrently — required, since one peer's
// final checkpoints can block receiving migrations another peer only
// sends during its own drain.
func (h *peerHarness) shutdownAll(t *testing.T) {
	t.Helper()
	errs := make([]error, len(h.srvs))
	var wg sync.WaitGroup
	for p, s := range h.srvs {
		wg.Add(1)
		go func(p int, s *Server) {
			defer wg.Done()
			errs[p] = s.Shutdown(context.Background())
		}(p, s)
	}
	wg.Wait()
	for p, err := range errs {
		if err != nil {
			t.Fatalf("shutdown peer %d: %v", p, err)
		}
	}
}

// peerTestStrategy is mutated per subtest before startPeerHarness; a
// plain variable keeps the harness signature small.
var peerTestStrategy dist.Strategy

// clusterAlerts unions every peer's alert log (each site's alerts live
// only on its owning peer).
func clusterAlerts(t *testing.T, h *peerHarness) []Alert {
	t.Helper()
	var all []Alert
	for p := range h.urls {
		alerts, err := (&Client{BaseURL: h.urls[p]}).Alerts(0, 0)
		if err != nil {
			t.Fatalf("peer %d alerts: %v", p, err)
		}
		all = append(all, alerts...)
	}
	return all
}

// TestClusteredMatchesSequential is the networked twin of
// TestServerMatchesSequential and dist's TestPartitionedFeedDeterminism:
// a world streamed through two rfidtrackd runtimes on real sockets —
// sites split between them, migrations crossing as RFM1 frames over
// /peer/migrate — must merge to a Result (and alert sets) bit-identical
// to the single-cluster sequential reference, for every migration
// strategy.
func TestClusteredMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	w := testWorld(t)
	const interval = model.Epoch(300)
	for _, tc := range []struct {
		name      string
		strategy  dist.Strategy
		withQuery bool
	}{
		{"none", dist.MigrateNone, false},
		{"readings", dist.MigrateReadings, false},
		{"weights+query", dist.MigrateWeights, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ref := dist.NewCluster(w, tc.strategy, rfinfer.DefaultConfig())
			if tc.withQuery {
				ref.Query = exposureQuery(w, interval)
			}
			want, err := ref.ReplaySequential(interval)
			if err != nil {
				t.Fatal(err)
			}
			var wantAlerts []map[model.TagID]bool
			if tc.withQuery {
				wantAlerts = make([]map[model.TagID]bool, len(w.Sites))
				for s := range w.Sites {
					wantAlerts[s] = ref.SiteQuery(s).AlertedTags()
				}
			}

			peerTestStrategy = tc.strategy
			h := startPeerHarness(t, w, 2, func(p int, cfg *Config) {
				if tc.withQuery {
					cfg.Query = exposureQuery(w, interval)
				}
			})
			mc := NewMultiClient(h.urls, h.owner)
			events := WorldEvents(w, ref.Departures())
			for i := 0; i < len(events); i += 256 {
				end := min(i+256, len(events))
				if err := mc.Ingest(events[i:end]); err != nil {
					t.Fatal(err)
				}
			}
			h.shutdownAll(t)

			got, err := mc.MergedResult()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("merged clustered Result diverged from sequential reference\n got: %+v\nwant: %+v", got, want)
			}
			if tc.withQuery {
				gotAlerts := alertTagSets(len(w.Sites), clusterAlerts(t, h))
				if !reflect.DeepEqual(gotAlerts, wantAlerts) {
					t.Errorf("clustered alert sets diverged\n got: %v\nwant: %v", gotAlerts, wantAlerts)
				}
			}

			// The wire carries at least the encoded engine state that
			// crossed peers: socket bytes (frames + HTTP framing) must
			// dominate the cross-peer link bytes the Result accounts.
			crossBytes := 0
			for _, lc := range want.Links {
				if h.owner[lc.From] != h.owner[lc.To] {
					crossBytes += lc.Bytes
				}
			}
			var sockOut, migsSent int64
			for p, s := range h.srvs {
				st := s.Stats()
				if st.Peers == nil {
					t.Fatalf("peer %d reports no PeerStats", p)
				}
				sockOut += st.Peers.SocketBytesSent
				migsSent += st.Peers.MigrationsSent
			}
			if crossBytes > 0 && sockOut < int64(crossBytes) {
				t.Errorf("socket bytes sent %d < cross-peer link bytes %d", sockOut, crossBytes)
			}
			if crossBytes > 0 && migsSent == 0 {
				t.Error("cross-peer links accounted but no migrations sent over the wire")
			}
		})
	}
}

// TestClusteredRecoverKillOne crash-stops one peer of a durable cluster
// mid-stream and restarts it over the same data directory. The restarted
// peer recovers from its snapshot + WAL (including the fsynced-before-ACK
// migration payloads), the surviving peer's retrying sender reconnects,
// and the drained cluster must still merge bit-identically to the
// uninterrupted sequential reference.
func TestClusteredRecoverKillOne(t *testing.T) {
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

	peerTestStrategy = dist.MigrateWeights
	dirs := []string{t.TempDir(), t.TempDir()}
	cfgMut := func(p int, cfg *Config) {
		cfg.Query = exposureQuery(w, interval)
		cfg.DataDir = dirs[p]
		cfg.SnapshotEvery = 1
		cfg.PeerRetryWindow = 30 * time.Second
	}
	h := startPeerHarness(t, w, 2, cfgMut)
	mc := NewMultiClient(h.urls, h.owner)
	events := WorldEvents(w, ref.Departures())

	cut := 0
	for cut < len(events) && events[cut].Time() < w.Epochs/2 {
		cut++
	}
	for i := 0; i < cut; i += 256 {
		end := min(i+256, cut)
		if err := mc.Ingest(events[i:end]); err != nil {
			t.Fatal(err)
		}
	}

	// Crash peer 1 with buffered intervals, unconsumed inbox entries and
	// no graceful anything, then restart it over the same directory.
	h.kill(t, 1)
	h.startPeer(t, w, 1, cfgMut)

	for i := cut; i < len(events); i += 256 {
		end := min(i+256, len(events))
		if err := mc.Ingest(events[i:end]); err != nil {
			t.Fatal(err)
		}
	}
	h.shutdownAll(t)

	got, err := mc.MergedResult()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("recovered cluster's merged Result diverged from reference\n got: %+v\nwant: %+v", got, want)
	}
	gotAlerts := alertTagSets(len(w.Sites), clusterAlerts(t, h))
	if !reflect.DeepEqual(gotAlerts, wantAlerts) {
		t.Errorf("recovered cluster's alert sets diverged\n got: %v\nwant: %v", gotAlerts, wantAlerts)
	}
}

// TestClusteredONS pins the network naming service: every peer answers
// /ons alike from its own mirror, a drained departure moves the object on
// every peer's mirror, and an unknown tag is a 404.
func TestClusteredONS(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Warehouses = 2
	cfg.PathLength = 1
	cfg.Epochs = 900
	w, err := sim.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	peerTestStrategy = dist.MigrateNone
	h := startPeerHarness(t, w, 2, nil)
	defer h.shutdownAll(t)

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
	lookupAll := func(want int) {
		t.Helper()
		for p := range h.urls {
			site, err := (&Client{BaseURL: h.urls[p]}).ONSLookup(item)
			if err != nil {
				t.Fatalf("peer %d ONSLookup: %v", p, err)
			}
			if site != want {
				t.Errorf("peer %d resolves tag %d to site %d, want %d", p, item, site, want)
			}
		}
	}
	// The HTTP endpoint answers on any peer, each from its own mirror.
	lookupAll(h.srvs[0].cluster.ONSLookup(item))
	// A departure, fanned out through the normal ingest path and drained,
	// moves the item on every peer's mirror.
	mc := NewMultiClient(h.urls, h.owner)
	if err := mc.Ingest([]Event{Depart(dist.Departure{Object: item, From: 0, To: 1, At: 10})}); err != nil {
		t.Fatal(err)
	}
	if _, err := mc.DrainAll(0); err != nil {
		t.Fatal(err)
	}
	lookupAll(1)
	// Errors from the client surface typed statuses: unknown tag is 404.
	if _, err := (&Client{BaseURL: h.urls[0]}).ONSLookup(model.TagID(w.NumTags())); !isStatus(err, http.StatusNotFound) {
		t.Errorf("unknown-tag lookup = %v, want 404 HTTPError", err)
	}
}

// isStatus reports whether err is an *HTTPError with the given status.
func isStatus(err error, status int) bool {
	var he *HTTPError
	return errors.As(err, &he) && he.Status == status
}

// TestPeerMigrateValidation pins the /peer/migrate guards: wrong
// Content-Type is 415, torn frames are 400 and counted, a frame for a
// non-owned destination is 400, and an un-clustered daemon refuses the
// route entirely.
func TestPeerMigrateValidation(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Warehouses = 2
	cfg.PathLength = 1
	cfg.Epochs = 900
	w, err := sim.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	peerTestStrategy = dist.MigrateWeights
	h := startPeerHarness(t, w, 2, nil)
	defer h.shutdownAll(t)
	post := func(url, ct string, body []byte) *HTTPError {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, url+"/peer/migrate", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", ct)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkStatus(resp, nil); err != nil {
			he, ok := err.(*HTTPError)
			if !ok {
				t.Fatalf("non-HTTP error: %v", err)
			}
			return he
		}
		return nil
	}
	if he := post(h.urls[0], "application/json", nil); he == nil || he.Status != http.StatusUnsupportedMediaType {
		t.Errorf("wrong Content-Type: %+v, want 415", he)
	}
	if he := post(h.urls[0], "application/octet-stream", []byte("RFM?garbage")); he == nil || he.Status != http.StatusBadRequest {
		t.Errorf("torn frame: %+v, want 400", he)
	}
	// A frame routed to the wrong peer: site 1 is owned by peer 1, so
	// peer 0 must refuse it permanently (a retrying sender would spin).
	frame := stream.AppendMigrationFrame(nil, 1, 0, 1, 10, []byte("opaque payload"))
	if he := post(h.urls[0], "application/octet-stream", frame); he == nil || he.Status != http.StatusBadRequest {
		t.Errorf("wrong-owner frame: %+v, want 400", he)
	}
	// The rightful owner accepts the same frame.
	if he := post(h.urls[1], "application/octet-stream", frame); he != nil {
		t.Errorf("rightful owner refused the frame: %+v", he)
	}
	// A duplicate is ACKed (idempotent receipt), not an error.
	if he := post(h.urls[1], "application/octet-stream", frame); he != nil {
		t.Errorf("duplicate frame refused: %+v", he)
	}
	st := h.srvs[1].Stats()
	if st.Peers.MigrationsReceived != 1 {
		t.Errorf("received %d migrations after duplicate post, want 1 (first copy wins)", st.Peers.MigrationsReceived)
	}
	if st.Peers.InboxDepth != 1 {
		t.Errorf("inbox depth %d, want 1", st.Peers.InboxDepth)
	}

	// An un-clustered daemon refuses the peer route.
	solo, err := New(dist.NewCluster(w, dist.MigrateWeights, rfinfer.DefaultConfig()), Config{Interval: 300, Horizon: w.Epochs})
	if err != nil {
		t.Fatal(err)
	}
	defer solo.Shutdown(context.Background())
	soloHTTP := httptest.NewServer(solo.Handler())
	defer soloHTTP.Close()
	if he := post(soloHTTP.URL, "application/octet-stream", frame); he == nil || he.Status != http.StatusNotFound {
		t.Errorf("un-clustered /peer/migrate: %+v, want 404", he)
	}
	if _, err := (&Client{BaseURL: soloHTTP.URL}).ONSLookup(0); err != nil {
		t.Errorf("un-clustered /ons should still answer from the local mirror: %v", err)
	}
}
