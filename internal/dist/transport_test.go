package dist

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"rfidtrack/internal/model"
	"rfidtrack/internal/rfinfer"
	"rfidtrack/internal/sim"
)

// TestChanTransport pins the loopback transport's contract: Recv blocks
// until Send, duplicate sends are dropped, and distinct departures do not
// cross wires.
func TestChanTransport(t *testing.T) {
	tr := NewChanTransport()
	d1 := Departure{Object: 1, From: 0, To: 1, At: 10}
	d2 := Departure{Object: 2, From: 1, To: 0, At: 10}
	if err := tr.Send(d1, []byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := tr.Send(d1, []byte("dup")); err != nil {
		t.Fatal(err) // duplicate: dropped, not an error
	}
	if err := tr.Send(d2, []byte("two")); err != nil {
		t.Fatal(err)
	}
	if b, err := tr.Recv(d2); err != nil || string(b) != "two" {
		t.Fatalf("Recv(d2) = %q, %v", b, err)
	}
	if b, err := tr.Recv(d1); err != nil || string(b) != "one" {
		t.Fatalf("Recv(d1) = %q, %v (duplicate must not win)", b, err)
	}
	// Recv before Send blocks until the payload lands.
	done := make(chan []byte, 1)
	go func() {
		b, _ := tr.Recv(d1)
		done <- b
	}()
	if err := tr.Send(d1, []byte("again")); err != nil {
		t.Fatal(err)
	}
	if got := <-done; string(got) != "again" {
		t.Fatalf("blocked Recv got %q", got)
	}
}

// runPartitioned replays one world across partitioned feeds over a shared
// loopback transport, each peer a goroutine owning the sites owner assigns
// it and running a worker pool of the given size, and returns the merged
// Result plus each site's alert set taken from its owning peer.
func runPartitioned(t *testing.T, w *sim.World, sc scenario, owner []int, workers int) (Result, []map[model.TagID]bool) {
	t.Helper()
	peers := slices.Max(owner) + 1
	tr := NewChanTransport()
	clusters := make([]*Cluster, peers)
	feeds := make([]*Feed, peers)
	for p := 0; p < peers; p++ {
		cl := NewCluster(w, sc.strategy, rfinfer.DefaultConfig())
		cl.Workers = workers
		if sc.withQuery {
			cl.Query = ColdChainQuery(w, sc.interval)
		}
		f, err := cl.OpenPartitionedFeed(sc.interval, OwnedSites(owner, p), tr)
		if err != nil {
			t.Fatal(err)
		}
		clusters[p], feeds[p] = cl, f
	}
	batches := worldIntervals(w, sc.interval)
	allDeps := clusters[0].Departures()
	results := make([]Result, peers)
	errs := make([]error, peers)
	var wg sync.WaitGroup
	for p := 0; p < peers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			f := feeds[p]
			// Departures broadcast to every peer: the shared global order is
			// the cross-process coordination.
			for _, d := range allDeps {
				if err := f.Depart(d); err != nil {
					errs[p] = err
					return
				}
			}
			// Each peer hands over the batches of the sites it owns.
			if err := advanceIntervals(f, batches); err != nil {
				errs[p] = err
				return
			}
			errs[p] = f.Close()
			results[p] = f.Result()
		}(p)
	}
	wg.Wait()
	for p, err := range errs {
		if err != nil {
			t.Fatalf("peer %d: %v", p, err)
		}
	}
	var alerts []map[model.TagID]bool
	if sc.withQuery {
		alerts = make([]map[model.TagID]bool, len(w.Sites))
		for s := range w.Sites {
			alerts[s] = clusters[owner[s]].SiteQuery(s).AlertedTags()
		}
	}
	return MergeResults(results), alerts
}

// TestPartitionedFeedDeterminism is the multi-peer twin of the e2e
// harness: every scenario replayed across 2 and sites-many partitioned
// feeds over the loopback transport must merge to a Result — and alert
// sets — bit-identical to the single-goroutine sequential reference. This
// is the in-process proof of the cross-process induction in coord.go; the
// serve-layer tests re-prove it over real sockets.
func TestPartitionedFeedDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	for _, sc := range e2eScenarios() {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			w, err := sim.Generate(sc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			refCl := NewCluster(w, sc.strategy, rfinfer.DefaultConfig())
			if sc.withQuery {
				refCl.Query = ColdChainQuery(w, sc.interval)
			}
			ref, err := refCl.ReplaySequential(sc.interval)
			if err != nil {
				t.Fatal(err)
			}
			refAlerts := alertSets(refCl)
			for _, peers := range []int{2, len(w.Sites)} {
				if peers > len(w.Sites) || peers < 2 {
					continue
				}
				t.Run(fmt.Sprintf("peers=%d", peers), func(t *testing.T) {
					got, gotAlerts := runPartitioned(t, w, sc, DefaultSiteMap(len(w.Sites), peers), 0)
					if !reflect.DeepEqual(got, ref) {
						t.Errorf("merged Result diverged from sequential reference\n got: %+v\nwant: %+v", got, ref)
					}
					if sc.withQuery && !reflect.DeepEqual(gotAlerts, refAlerts) {
						t.Errorf("alert sets diverged\n got: %v\nwant: %v", tagSets(gotAlerts), tagSets(refAlerts))
					}
				})
			}
		})
	}
}

// TestOpenPartitionedFeedValidation pins the constructor's rejections.
func TestOpenPartitionedFeedValidation(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Warehouses = 2
	cfg.PathLength = 1
	cfg.Epochs = 900
	w, err := sim.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cl := NewCluster(w, MigrateWeights, rfinfer.DefaultConfig())
	if _, err := cl.OpenPartitionedFeed(300, []bool{true}, NewChanTransport()); err == nil {
		t.Error("short ownership mask accepted")
	}
	if _, err := cl.OpenPartitionedFeed(300, []bool{true, false}, nil); err == nil {
		t.Error("nil transport accepted")
	}
	cl.Hooks.OnDepart = func(Departure) {}
	if _, err := cl.OpenPartitionedFeed(300, []bool{true, false}, NewChanTransport()); err == nil {
		t.Error("hooks accepted on a partitioned feed")
	}
	cl.Hooks.OnDepart = nil
	f, err := cl.OpenPartitionedFeed(300, []bool{true, false}, NewChanTransport())
	if err != nil {
		t.Fatal(err)
	}
	item := w.Sites[1].Items()[0]
	if err := f.AdvanceWith([][]Reading{nil, {{T: 10, ID: item, Mask: 1}}}); err == nil {
		t.Error("AdvanceWith accepted a batch for a non-owned site")
	}
}
