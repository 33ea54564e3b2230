// The chaos-consumer acceptance harness for the delivery tier: a fleet of
// real HTTP consumers (cursor long-poll Follow loops and raw SSE readers)
// rides one daemon's alert feed while the consumers randomly hang up and
// resume by cursor and the daemon itself takes a kill -9 mid-stream. The
// bar is exact delivery: every consumer's final alert sequence must be
// reflect.DeepEqual to an uninterrupted reference run's alert log — no
// loss across slow reads, disconnects or the crash; no duplicates from
// at-least-once resume.
package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rfidtrack/internal/dist"
	"rfidtrack/internal/model"
	"rfidtrack/internal/rfinfer"
	"rfidtrack/internal/sim"
)

// chaosWorld is the four-site cold-chain world the harness streams.
func chaosWorld(t testing.TB) *sim.World {
	t.Helper()
	cfg := sim.DefaultConfig()
	cfg.Warehouses = 4
	cfg.PathLength = 3
	cfg.Epochs = 1200
	cfg.ItemsPerCase = 2
	cfg.RR = 0.7
	w, err := sim.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// chaosProxy fronts whichever Server incarnation is currently alive. While
// the daemon is "dead" (between Abort and the recovered New) it answers
// 503 — the same refusal a load balancer gives for a crashed backend — so
// consumers exercise their retry-and-resume paths instead of erroring out.
type chaosProxy struct {
	down    atomic.Bool
	handler atomic.Value // http.Handler
}

func (p *chaosProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if p.down.Load() {
		http.Error(w, "daemon down", http.StatusServiceUnavailable)
		return
	}
	p.handler.Load().(http.Handler).ServeHTTP(w, r)
}

// TestChaosConsumersExactDelivery is the delivery tier's end-to-end
// correctness bar (see ISSUE: chaos-consumer harness). The reference is an
// uninterrupted in-process run over the same event stream; the chaos run
// streams the identical events through a daemon that is hard-killed and
// recovered from its WAL mid-stream, behind a proxy, with every consumer
// repeatedly cut off by short context deadlines and resuming from its
// cursor (long-poll) or Last-Event-ID (SSE). Deterministic staged
// publication plus positional WAL dedup make the two alert sequences
// comparable element-for-element, Seq included.
func TestChaosConsumersExactDelivery(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	w := chaosWorld(t)
	const interval = model.Epoch(300)

	ref := dist.NewCluster(w, dist.MigrateWeights, rfinfer.DefaultConfig())
	ref.Query = exposureQuery(w, interval)
	if _, err := ref.ReplaySequential(interval); err != nil {
		t.Fatal(err)
	}
	events := WorldEvents(w, ref.Departures())

	// Reference: the same stream through an uninterrupted daemon. Its alert
	// log IS the sequence every chaos consumer must reconstruct exactly.
	refAlerts := func() []Alert {
		c := dist.NewCluster(w, dist.MigrateWeights, rfinfer.DefaultConfig())
		srv, err := New(c, Config{Interval: interval, Horizon: w.Epochs, Query: exposureQuery(w, interval)})
		if err != nil {
			t.Fatal(err)
		}
		streamEvents(t, srv, events)
		if err := srv.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
		return srv.AlertsSince(0, 0)
	}()
	if len(refAlerts) == 0 {
		t.Fatal("reference run raised no alerts; the scenario is too easy to prove anything")
	}

	// The chaos daemon: durable, snapshots enabled so the crash recovery
	// path is snapshot + WAL tail.
	dir := t.TempDir()
	cfg := Config{
		Interval:      interval,
		Horizon:       w.Epochs,
		Query:         exposureQuery(w, interval),
		DataDir:       dir,
		SyncEvery:     -1, // Abort commits, as in recover_test
		SnapshotEvery: 2,
	}
	mkServer := func() *Server {
		c := dist.NewCluster(w, dist.MigrateWeights, rfinfer.DefaultConfig())
		srv, err := New(c, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return srv
	}
	srv := mkServer()
	proxy := &chaosProxy{}
	proxy.handler.Store(srv.Handler())
	ts := httptest.NewServer(proxy)
	defer ts.Close()

	const (
		nFollow     = 3
		nSSE        = 3
		nConsumers  = nFollow + nSSE
		minForced   = 2 // every consumer must survive at least this many cut connections
		harnessWait = 120 * time.Second
	)
	var (
		wg      sync.WaitGroup
		got     = make([][]Alert, nConsumers)
		forced  = make([]atomic.Int64, nConsumers)
		stopped atomic.Bool // set when the test is giving up; unblocks consumer loops
	)
	deadline := time.Now().Add(harnessWait)

	// Follow consumers: the shipped durable-cursor loop, repeatedly cut off
	// by a short context deadline and resumed from the returned cursor.
	runFollow := func(id int, rng *rand.Rand) {
		defer wg.Done()
		cl := &Client{BaseURL: ts.URL}
		cursor := ""
		for time.Now().Before(deadline) && !stopped.Load() {
			ctx, cancel := context.WithTimeout(context.Background(), time.Duration(30+rng.Intn(120))*time.Millisecond)
			next, err := cl.Follow(ctx, MatchAll(), cursor, func(a Alert) {
				got[id] = append(got[id], a)
			})
			interrupted := ctx.Err() != nil
			cancel()
			if err != nil {
				t.Errorf("consumer %d: Follow returned permanent error: %v", id, err)
				return
			}
			cursor = next
			if !interrupted {
				return // the daemon reported Done: graceful completion
			}
			forced[id].Add(1)
			time.Sleep(time.Duration(rng.Intn(15)) * time.Millisecond)
		}
		t.Errorf("consumer %d: follow loop never saw the feed finish", id)
	}

	// SSE consumers: raw text/event-stream readers that parse id:/data:
	// lines themselves, dedup by sequence floor, and reconnect with the
	// standard Last-Event-ID header — exactly what a browser EventSource
	// does on reconnect.
	runSSE := func(id int, rng *rand.Rand) {
		defer wg.Done()
		nextSeq, lastID := 0, ""
		for time.Now().Before(deadline) && !stopped.Load() {
			ctx, cancel := context.WithTimeout(context.Background(), time.Duration(30+rng.Intn(120))*time.Millisecond)
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/alerts/stream", nil)
			if err != nil {
				cancel()
				t.Errorf("consumer %d: %v", id, err)
				return
			}
			if lastID != "" {
				req.Header.Set("Last-Event-ID", lastID)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil || resp.StatusCode != http.StatusOK {
				if resp != nil {
					resp.Body.Close()
				}
				cancel()
				// Daemon down (503 / refused); back off and retry.
				time.Sleep(time.Duration(5+rng.Intn(15)) * time.Millisecond)
				continue
			}
			finished := false
			sc := bufio.NewScanner(resp.Body)
			var idLine, eventLine, dataLine string
			for sc.Scan() {
				switch line := sc.Text(); {
				case strings.HasPrefix(line, "id: "):
					idLine = strings.TrimPrefix(line, "id: ")
				case strings.HasPrefix(line, "event: "):
					eventLine = strings.TrimPrefix(line, "event: ")
				case strings.HasPrefix(line, "data: "):
					dataLine = strings.TrimPrefix(line, "data: ")
				case line == "":
					if eventLine == "done" {
						finished = true
					} else if dataLine != "" {
						var a Alert
						if err := json.Unmarshal([]byte(dataLine), &a); err != nil {
							t.Errorf("consumer %d: bad SSE payload %q: %v", id, dataLine, err)
							resp.Body.Close()
							cancel()
							return
						}
						if a.Seq >= nextSeq { // duplicates from resume are suppressed
							got[id] = append(got[id], a)
							nextSeq = a.Seq + 1
							lastID = idLine
						}
					}
					idLine, eventLine, dataLine = "", "", ""
				}
				if finished {
					break
				}
			}
			resp.Body.Close()
			cancel()
			if finished {
				return
			}
			forced[id].Add(1) // our deadline (or the crash) cut the stream
			time.Sleep(time.Duration(rng.Intn(15)) * time.Millisecond)
		}
		t.Errorf("consumer %d: SSE loop never saw the done event", id)
	}

	for i := 0; i < nFollow; i++ {
		wg.Add(1)
		go runFollow(i, rand.New(rand.NewSource(int64(1000+i))))
	}
	for i := 0; i < nSSE; i++ {
		wg.Add(1)
		go runSSE(nFollow+i, rand.New(rand.NewSource(int64(2000+i))))
	}

	// Stream the world with pacing so connections live and die mid-feed;
	// hard-kill the daemon mid-interval at epoch 650 (after the first
	// periodic snapshot at boundary 600, so recovery is snapshot + WAL
	// tail) and bring up a recovered incarnation behind the proxy.
	feed := func(evs []Event) {
		for i := 0; i < len(evs); i += 120 {
			end := min(i+120, len(evs))
			if err := srv.Ingest(evs[i:end]); err != nil {
				t.Fatal(err)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	cut := splitAt(events, 650)
	feed(events[:cut])

	proxy.down.Store(true)
	if err := srv.Abort(); err != nil {
		t.Fatalf("abort (kill -9): %v", err)
	}
	time.Sleep(120 * time.Millisecond) // consumers slam into 503 meanwhile
	srv = mkServer()
	if !srv.Healthy() {
		t.Fatal("recovered daemon unhealthy")
	}
	proxy.handler.Store(srv.Handler())
	proxy.down.Store(false)

	feed(events[cut:])

	// Keep the feed open until every consumer has been cut off and resumed
	// at least minForced times — the loop's long-polls keep timing out
	// against a quiet log, so this converges fast.
	for {
		all := true
		for i := range forced {
			if forced[i].Load() < minForced {
				all = false
				break
			}
		}
		if all {
			break
		}
		if !time.Now().Before(deadline) {
			stopped.Store(true)
			t.Fatal("consumers never accumulated forced disconnects; the chaos half of the harness is dead")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Graceful shutdown: drains the remaining checkpoints and finishes the
	// alert log, which is every consumer's termination signal.
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	waited := make(chan struct{})
	go func() { wg.Wait(); close(waited) }()
	select {
	case <-waited:
	case <-time.After(harnessWait):
		stopped.Store(true)
		t.Fatal("consumers still running after the feed finished")
	}

	// The recovered daemon's own log must match the uninterrupted run —
	// the crash recovered, positionally deduped, and continued exactly.
	if gotLog := srv.AlertsSince(0, 0); !reflect.DeepEqual(gotLog, refAlerts) {
		t.Errorf("recovered daemon's alert log diverged from the uninterrupted reference\n got %d alerts\nwant %d alerts",
			len(gotLog), len(refAlerts))
	}
	// And the bar itself: every consumer reconstructed the exact sequence.
	for id, g := range got {
		if !reflect.DeepEqual(g, refAlerts) {
			i := 0
			for i < len(g) && i < len(refAlerts) && reflect.DeepEqual(g[i], refAlerts[i]) {
				i++
			}
			t.Errorf("consumer %d: delivered sequence diverged from reference at index %d (got %d alerts, want %d; %d forced disconnects)",
				id, i, len(g), len(refAlerts), forced[id].Load())
		}
	}
	t.Logf("chaos: %d reference alerts; forced disconnects per consumer: %v",
		len(refAlerts), func() []int64 {
			out := make([]int64, nConsumers)
			for i := range forced {
				out[i] = forced[i].Load()
			}
			return out
		}())
}
