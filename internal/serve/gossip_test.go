package serve

import (
	"errors"
	"net/http/httptest"
	"reflect"
	"strconv"
	"testing"
	"time"

	"rfidtrack/internal/dist"
	"rfidtrack/internal/model"
	"rfidtrack/internal/rfinfer"
	"rfidtrack/internal/sim"
)

// TestGossipUnstallsQuietPeer pins the progress half of the gossip layer.
// Peer 0's producers go quiet mid-stream while peer 1's keep reporting: a
// departure into peer 1's territory is already pending, so peer 1's next
// checkpoint blocks waiting for weights peer 0 only sends at a checkpoint
// its parked stream clock will never reach. With gossip running, peer 0
// adopts the cluster's maximum stream time, seals its checkpoints, sends
// the weights, and both peers advance to the horizon — live, well inside
// the retry window, not as a drain side effect.
func TestGossipUnstallsQuietPeer(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	w := testWorld(t)
	const interval = model.Epoch(300)
	const quietAfter = model.Epoch(450)
	ref := dist.NewCluster(w, dist.MigrateWeights, rfinfer.DefaultConfig())
	events := WorldEvents(w, ref.Departures())

	peerTestStrategy = dist.MigrateWeights
	h := startPeerHarness(t, w, 2, func(p int, cfg *Config) {
		cfg.GossipInterval = 25 * time.Millisecond
		cfg.PeerRetryWindow = 60 * time.Second
	})
	mc := NewMultiClient(h.urls, h.owner)

	// A cross-peer departure shortly before the producers go quiet: its
	// weights are due at peer 0's checkpoint 600 — past where peer 0's
	// clock parks.
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
	crossTo := -1
	for s, p := range h.owner {
		if p == 1 {
			crossTo = s
			break
		}
	}
	cross := Depart(dist.Departure{Object: item, From: 0, To: crossTo, At: quietAfter - 30})

	// Phase 1: everything before the quiet point, cross departure included
	// in time order.
	var before []Event
	injected := false
	for _, ev := range events {
		if ev.Time() >= quietAfter {
			break
		}
		if !injected && ev.Time() >= cross.At {
			before = append(before, cross)
			injected = true
		}
		before = append(before, ev)
	}
	if !injected {
		before = append(before, cross)
	}
	ingestFrom(t, mc, before, 0)

	// Phase 2: peer 0's producers go silent; only readings for peer 1's
	// sites keep flowing, carrying stream time to the horizon.
	var after []Event
	for _, ev := range events {
		if ev.Time() >= quietAfter && ev.Type == TypeReading && h.owner[ev.Site] == 1 {
			after = append(after, ev)
		}
	}
	ingestFrom(t, mc, after, 0)

	// Live progress: without adoption peer 0 parks at NextCheckpoint 600
	// forever (its own stream time never passes it); with gossip it seals
	// through the horizon and the pending weights reach peer 1. The gossip
	// view is one more exchange behind the adoption, so the wait covers it
	// too.
	gossipView := func() GossipView {
		t.Helper()
		var view GossipView
		resp, err := (&Client{BaseURL: h.urls[0]}).httpClient().Get(h.urls[0] + "/gossip")
		if err != nil {
			t.Fatal(err)
		}
		if err := checkStatus(resp, &view); err != nil {
			t.Fatal(err)
		}
		return view
	}
	viewCaughtUp := func(view GossipView) bool {
		return len(view.Entries) > 1 && len(view.AgeMS) > 1 && view.Entries[1].Stream >= 900 && view.AgeMS[1] >= 0
	}
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		quiet := h.srvs[0].Stats()
		busy := h.srvs[1].Stats()
		if quiet.NextCheckpoint >= 900 && h.srvs[0].adopted.Load() > 0 &&
			busy.Peers.MigrationsReceived >= 1 && viewCaughtUp(gossipView()) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if st := h.srvs[0].Stats(); st.NextCheckpoint < 900 {
		t.Errorf("quiet peer parked at NextCheckpoint %d, want >= 900 (stalled without stream-time adoption)", st.NextCheckpoint)
	}
	if got := h.srvs[0].adopted.Load(); got == 0 {
		t.Error("quiet peer adopted no gossip stream time")
	}
	if got := h.srvs[1].Stats().Peers.MigrationsReceived; got < 1 {
		t.Errorf("busy peer received %d migrations, want >= 1 (quiet peer never sent the pending weights)", got)
	}
	// The adoption shows up in the monitoring surface both ways: the
	// gossip view's row for the busy peer carries its stream time, and a
	// fresh exchange keeps ages finite.
	view := gossipView()
	if len(view.Entries) < 2 || len(view.AgeMS) < 2 {
		t.Fatalf("gossip view has %d entries, %d ages; want a row per peer", len(view.Entries), len(view.AgeMS))
	}
	if view.Entries[1].Stream < 900 {
		t.Errorf("gossip view records peer 1 at stream %d, want >= 900", view.Entries[1].Stream)
	}
	if view.AgeMS[1] < 0 {
		t.Error("gossip view never heard from peer 1")
	}
	h.shutdownAll(t)
}

// TestGossipMergeRules unit-tests the table merge: higher epoch wins
// outright and rebinds the slot URL, equal epochs advance stream/horizon
// monotonically, lower epochs are ignored, and header fencing
// (checkPeerEpoch) accepts fresh epochs while refusing stale ones.
func TestGossipMergeRules(t *testing.T) {
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
	s := h.srvs[1]

	// Equal epoch: stream and horizon move forward, never back.
	s.mergeGossip(GossipMsg{From: 0, Entries: []GossipEntry{{URL: h.urls[0], Stream: 500, Horizon: 64}, {}}})
	s.mergeGossip(GossipMsg{From: 0, Entries: []GossipEntry{{URL: h.urls[0], Stream: 400, Horizon: 32}, {}}})
	view := s.gossipMsg()
	if view.Entries[0].Stream != 500 || view.Entries[0].Horizon != 64 {
		t.Errorf("equal-epoch merge = %+v, want stream 500 horizon 64 (monotonic)", view.Entries[0])
	}

	// Higher epoch wins outright and rebinds the slot's URL.
	s.mergeGossip(GossipMsg{From: 0, Entries: []GossipEntry{{URL: "http://promoted.example", Epoch: 3, Stream: 450}, {}}})
	view = s.gossipMsg()
	if view.Entries[0].Epoch != 3 || view.Entries[0].URL != "http://promoted.example" {
		t.Errorf("higher-epoch merge = %+v, want epoch 3 at rebound URL", view.Entries[0])
	}
	if got := s.peers.url(0); got != "http://promoted.example" {
		t.Errorf("peer transport still posts to %q after rebind", got)
	}

	// Lower epoch is ignored entirely.
	s.mergeGossip(GossipMsg{From: 0, Entries: []GossipEntry{{URL: h.urls[0], Epoch: 1, Stream: 9999}, {}}})
	view = s.gossipMsg()
	if view.Entries[0].Epoch != 3 || view.Entries[0].URL != "http://promoted.example" {
		t.Errorf("stale-epoch merge mutated the row: %+v", view.Entries[0])
	}

	// Header fencing follows the table: the slot is at epoch 3, so a
	// sender announcing less is refused with the typed error and one
	// announcing more is adopted.
	req := func(peer, epoch string) error {
		r := httptest.NewRequest("POST", "/peer/migrate", nil)
		r.Header.Set(peerHeader, peer)
		r.Header.Set(epochHeader, epoch)
		return s.checkPeerEpoch(r)
	}
	if err := req("0", "2"); !errors.Is(err, ErrStaleEpoch) {
		t.Errorf("stale header epoch = %v, want ErrStaleEpoch", err)
	}
	if err := req("0", "4"); err != nil {
		t.Errorf("fresh header epoch refused: %v", err)
	}
	if got := s.gossipMsg().Entries[0].Epoch; got != 4 {
		t.Errorf("fresh header epoch not adopted: slot at %d, want 4", got)
	}
	// Headerless requests (manual curl, older peers) pass: the fence is an
	// upgrade, not a handshake requirement.
	if err := s.checkPeerEpoch(httptest.NewRequest("POST", "/peer/migrate", nil)); err != nil {
		t.Errorf("headerless request refused: %v", err)
	}
	if err := req("not-a-number", strconv.FormatInt(99, 10)); err != nil {
		t.Errorf("malformed peer header refused: %v", err)
	}

	// Stream-time adoption: the cluster max from the merged table becomes
	// local stream time (peer 0's server, untouched above, adopts from a
	// pushed exchange).
	q := h.srvs[0]
	q.mergeGossip(GossipMsg{From: 1, Entries: []GossipEntry{{}, {URL: h.urls[1], Stream: 600}}})
	if got := q.adopted.Load(); got != 1 {
		t.Errorf("adopted counter = %d, want 1", got)
	}
	if got := q.maxT.Load(); got != 600 {
		t.Errorf("adopted stream time = %d, want 600", got)
	}

	// Self-supersession: a table showing this daemon's OWN slot at a
	// higher epoch latches it unhealthy with the typed error.
	s.mergeGossip(GossipMsg{From: 0, Entries: []GossipEntry{{URL: "http://promoted.example", Epoch: 4}, {URL: "http://usurper.example", Epoch: 7}}})
	if !s.failed.Load() {
		t.Error("superseded daemon did not latch unhealthy")
	}
	if err := walErrOf(s); !errors.Is(err, ErrStaleEpoch) {
		t.Errorf("superseded daemon latched %v, want ErrStaleEpoch", err)
	}
	// The latched servers cannot drain cleanly; crash-stop them.
	h.handlers[0].Store(nil)
	h.handlers[1].Store(nil)
	h.srvs[0].Abort()
	h.srvs[1].Abort()
}

// TestReplStatsSurface pins the monitoring wiring: a clustered durable
// daemon reports its fence epoch, shipped-byte counters and gossip table
// under stats.repl, and the GET /gossip view is refused on an
// un-clustered daemon.
func TestReplStatsSurface(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Warehouses = 2
	cfg.PathLength = 1
	cfg.Epochs = 900
	w, err := sim.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	peerTestStrategy = dist.MigrateNone
	dirs := []string{t.TempDir(), t.TempDir()}
	h := startPeerHarness(t, w, 2, func(p int, cfg *Config) {
		cfg.DataDir = dirs[p]
	})
	defer h.shutdownAll(t)

	st, err := (&Client{BaseURL: h.urls[0]}).Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Repl == nil {
		t.Fatal("clustered durable daemon reports no stats.repl")
	}
	if st.Repl.SelfEpoch != 0 {
		t.Errorf("fresh daemon at fence epoch %d, want 0", st.Repl.SelfEpoch)
	}
	if st.Repl.LastSubscribeMS != -1 {
		t.Errorf("never-subscribed daemon reports last_subscribe_ms %d, want -1", st.Repl.LastSubscribeMS)
	}
	if len(st.Repl.Gossip) != 2 {
		t.Errorf("gossip table has %d rows, want 2", len(st.Repl.Gossip))
	}
	if !reflect.DeepEqual(st.Repl.Gossip[0].URL, h.urls[0]) {
		t.Errorf("gossip row 0 at %q, want %q", st.Repl.Gossip[0].URL, h.urls[0])
	}

	// Un-clustered daemons refuse the gossip view.
	resp, err := (&Client{BaseURL: h.urls[0]}).httpClient().Get(h.urls[0] + "/gossip")
	if err != nil {
		t.Fatal(err)
	}
	var view GossipView
	if err := checkStatus(resp, &view); err != nil {
		t.Fatalf("clustered GET /gossip: %v", err)
	}
	if view.Self != 0 || len(view.Entries) != 2 {
		t.Errorf("gossip view = %+v, want self 0 with 2 entries", view)
	}
}
