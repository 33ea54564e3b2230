package rfidtrack_test

// The consumer-scale fan-out smoke (`make fanout-smoke`): run the real
// rfidtrackd binary and attach a thousand real consumers — half driving
// the durable-cursor long-poll loop (serve.Client.Follow), half reading
// the SSE stream — while the world streams in. Phase A must deliver the
// complete alert sequence to every consumer. Phase B attaches a hundred
// consumers of both kinds after the stream has drained, half from cursor
// 0 and half resuming from a mid-sequence cursor token, and each must
// receive exactly the rest of the sequence from its cursor on. This is the
// process-level twin of serve's chaos/registry tests: real sockets, real
// SSE framing, real long-poll reconnects.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rfidtrack/internal/serve"
	"rfidtrack/internal/stream"
)

// startFanoutDaemon launches rfidtrackd (memory-only: fan-out needs no
// WAL) with the smoke world flags plus extra, and waits for its listen
// line.
func startFanoutDaemon(t *testing.T, bin string, extra ...string) (*exec.Cmd, string) {
	t.Helper()
	args := append([]string{"-addr", "127.0.0.1:0"}, smokeWorldFlags...)
	args = append(args, extra...)
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	lines := bufio.NewScanner(stdout)
	addr := make(chan string, 1)
	go func() {
		for lines.Scan() {
			line := lines.Text()
			if i := strings.Index(line, "listening on "); i >= 0 {
				fields := strings.Fields(line[i+len("listening on "):])
				if len(fields) > 0 {
					addr <- fields[0]
				}
			}
		}
		io.Copy(io.Discard, stdout)
	}()
	select {
	case a := <-addr:
		waitHealthz(t, "http://"+a)
		return cmd, "http://" + a
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		t.Fatal("daemon never printed its listen address")
		return nil, ""
	}
}

// stopDaemon shuts the daemon down gracefully, escalating to SIGKILL.
func stopDaemon(t *testing.T, cmd *exec.Cmd) {
	t.Helper()
	cmd.Process.Signal(os.Interrupt)
	done := make(chan struct{})
	go func() { cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		<-done
	}
}

// sseConsume reads an /alerts/stream SSE feed URL until ctx ends,
// appending each decoded alert and bumping count — a hand-rolled
// EventSource, frames and all.
func sseConsume(t *testing.T, ctx context.Context, streamURL string, count *atomic.Int64) []serve.Alert {
	t.Helper()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, streamURL, nil)
	if err != nil {
		t.Error(err)
		return nil
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		if ctx.Err() == nil {
			t.Errorf("SSE connect: %v", err)
		}
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("SSE status %d", resp.StatusCode)
		return nil
	}
	var got []serve.Alert
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if data, ok := strings.CutPrefix(line, "data: "); ok && data != "{}" {
			var a serve.Alert
			if err := json.Unmarshal([]byte(data), &a); err != nil {
				t.Errorf("bad SSE payload %q: %v", data, err)
				return got
			}
			got = append(got, a)
			count.Add(1)
		}
	}
	return got
}

// runFanoutPhase attaches nFollow+nSSE live consumers, streams the smoke
// world, and requires every consumer to end up with the daemon's exact
// alert sequence. Returns the daemon's delivery stats for the phase's
// drop/catch-up assertions.
func runFanoutPhase(t *testing.T, bin string, nFollow, nSSE int, extra ...string) serve.DeliveryStats {
	t.Helper()
	daemon, baseURL := startFanoutDaemon(t, bin, extra...)
	defer stopDaemon(t, daemon)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	n := nFollow + nSSE
	results := make([][]serve.Alert, n)
	counts := make([]atomic.Int64, n)
	var wg sync.WaitGroup
	for i := 0; i < nFollow; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl := &serve.Client{BaseURL: baseURL}
			_, err := cl.Follow(ctx, serve.MatchAll(), "", func(a serve.Alert) {
				results[i] = append(results[i], a)
				counts[i].Add(1)
			})
			if err != nil {
				t.Errorf("consumer %d: follow: %v", i, err)
			}
		}(i)
	}
	for i := nFollow; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = sseConsume(t, ctx, baseURL+"/alerts/stream?since=0", &counts[i])
		}(i)
	}

	// Stream the world while the fleet is attached, so delivery is live
	// fan-out, not a cold log read.
	client := &serve.Client{BaseURL: baseURL}
	ref := streamSmokeWorld(t, client)

	// Every consumer must converge on the full sequence.
	awaitConsumers(t, cancel, counts, func(int) int { return len(ref) })
	st, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	wg.Wait()

	for i, got := range results {
		if !reflect.DeepEqual(got, ref) {
			kind := "follow"
			if i >= nFollow {
				kind = "sse"
			}
			t.Errorf("consumer %d (%s): got %d alerts, want the daemon's exact %d-alert sequence", i, kind, len(got), len(ref))
		}
	}
	fmt.Printf("fanout phase (%v): %d consumers, %d alerts each; enqueued=%d dropped=%d catchups=%d\n",
		extra, n, len(ref), st.Delivery.Enqueued, st.Delivery.Dropped, st.Delivery.Catchups)
	return st.Delivery
}

// TestFanoutSmoke is the end-to-end consumer-scale drill.
func TestFanoutSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the daemon and runs 1k consumers")
	}
	goTool := filepath.Join(runtime.GOROOT(), "bin", "go")
	if _, err := os.Stat(goTool); err != nil {
		goTool = "go"
	}
	moduleRoot, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(t.TempDir(), "rfidtrackd")
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	build := exec.CommandContext(ctx, goTool, "build", "-o", bin, "./cmd/rfidtrackd")
	build.Dir = moduleRoot
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	// Phase A: a thousand consumers on default queues — nobody lags,
	// nothing drops, everyone gets the exact sequence.
	if d := runFanoutPhase(t, bin, 500, 500); d.Dropped != 0 {
		t.Errorf("default queues dropped %d offers across 1k consumers; want 0", d.Dropped)
	}

	// Phase B: consumers that attach after the stream has drained.
	runLateAttachPhase(t, bin, 100)
}

// streamSmokeWorld streams the smoke world to the daemon, drains it, and
// returns its complete alert log.
func streamSmokeWorld(t *testing.T, client *serve.Client) []serve.Alert {
	t.Helper()
	events := serve.WorldEvents(smokeWorld(t), nil)
	for i := 0; i < len(events); i += 256 {
		end := min(i+256, len(events))
		if _, err := client.Ingest(events[i:end]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := client.Drain(0); err != nil {
		t.Fatal(err)
	}
	ref, err := client.Alerts(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref) < 2 {
		t.Fatalf("smoke world raised %d alerts; need at least 2 to exercise fan-out", len(ref))
	}
	return ref
}

// awaitConsumers waits until consumer i has counted want(i) alerts, and
// fails the test (after cancel) if some are still behind after 60s.
func awaitConsumers(t *testing.T, cancel context.CancelFunc, counts []atomic.Int64, want func(i int) int) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		behind := 0
		for i := range counts {
			if counts[i].Load() < int64(want(i)) {
				behind++
			}
		}
		if behind == 0 {
			return
		}
		if time.Now().After(deadline) {
			cancel()
			t.Fatalf("%d of %d consumers still behind after 60s", behind, len(counts))
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// runLateAttachPhase streams the smoke world to a fresh daemon, drains it,
// and only then attaches n consumers: follow and SSE alternately, half
// from cursor 0 and half resuming from a mid-sequence cursor token. Each
// must receive exactly the alerts from its cursor on, in order.
func runLateAttachPhase(t *testing.T, bin string, n int) {
	t.Helper()
	daemon, baseURL := startFanoutDaemon(t, bin)
	defer stopDaemon(t, daemon)

	ref := streamSmokeWorld(t, &serve.Client{BaseURL: baseURL})
	mid := len(ref) / 2
	midCursor := stream.EncodeAlertCursor(int64(ref[mid].Seq))

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	results := make([][]serve.Alert, n)
	wants := make([][]serve.Alert, n)
	counts := make([]atomic.Int64, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		cursor := ""
		wants[i] = ref
		if i%2 == 1 {
			cursor, wants[i] = midCursor, ref[mid:]
		}
		wg.Add(1)
		if i%4 < 2 {
			go func(i int) {
				defer wg.Done()
				cl := &serve.Client{BaseURL: baseURL}
				_, err := cl.Follow(ctx, serve.MatchAll(), cursor, func(a serve.Alert) {
					results[i] = append(results[i], a)
					counts[i].Add(1)
				})
				if err != nil {
					t.Errorf("late consumer %d: follow: %v", i, err)
				}
			}(i)
		} else {
			go func(i int) {
				defer wg.Done()
				results[i] = sseConsume(t, ctx, baseURL+"/alerts/stream?cursor="+cursor, &counts[i])
			}(i)
		}
	}

	awaitConsumers(t, cancel, counts, func(i int) int { return len(wants[i]) })
	cancel()
	wg.Wait()

	for i, got := range results {
		if !reflect.DeepEqual(got, wants[i]) {
			kind := "follow"
			if i%4 >= 2 {
				kind = "sse"
			}
			t.Errorf("late consumer %d (%s, from seq %d): got %d alerts, want exactly the remaining %d",
				i, kind, len(ref)-len(wants[i]), len(got), len(wants[i]))
		}
	}
	fmt.Printf("late-attach phase: %d consumers after the drain, %d alerts, resumed at seq %d\n", n, len(ref), mid)
}
