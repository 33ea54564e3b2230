package rfidtrack_test

// The kill -9 recovery smoke (`make recover-smoke`): run the real
// rfidtrackd binary with a data directory in strict-fsync mode, stream at
// it like a retrying edge relay, SIGKILL it mid-stream, restart it over
// the same directory, finish the stream, and require the drained Result
// to be reflect.DeepEqual to the uninterrupted sequential reference. This
// is the process-level twin of serve.TestRecoverMatchesUninterrupted: no
// graceful path runs — the first process dies with buffered intervals,
// un-snapshotted checkpoints and an HTTP request possibly in flight. The
// restart is also the first to find the directory's deployment record, so it
// starts from the layout alone; a last start with one flag changed must be
// refused.

import (
	"bufio"
	"context"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"rfidtrack/internal/dist"
	"rfidtrack/internal/model"
	"rfidtrack/internal/rfinfer"
	"rfidtrack/internal/serve"
	"rfidtrack/internal/sim"
)

// smokeWorldFlags is the deployment both the daemon and the in-test
// reference build: small enough to finish in seconds, rich enough to
// carry migrations and alerts.
var smokeWorldFlags = []string{"-sites", "2", "-path", "2", "-epochs", "1200", "-items", "3", "-interval", "300", "-seed", "1"}

func smokeWorld(t *testing.T) *sim.World {
	t.Helper()
	cfg := sim.DefaultConfig()
	cfg.Warehouses = 2
	cfg.PathLength = 2
	cfg.Epochs = 1200
	cfg.ItemsPerCase = 3
	cfg.Seed = 1
	// Matching rfidtrackd's own defaults for the remaining flags.
	cfg.Shelves = 8
	cfg.RR = 0.8
	cfg.AnomalyEvery = 120
	w, err := sim.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// startDaemon launches rfidtrackd on an ephemeral port and waits for its
// listen line; it returns the daemon, its base URL and its start-up line.
func startDaemon(t *testing.T, bin, dataDir string) (*exec.Cmd, string, string) {
	t.Helper()
	args := append([]string{"-addr", "127.0.0.1:0", "-data-dir", dataDir, "-strict", "-snapshot-every", "1"}, smokeWorldFlags...)
	cmd := exec.Command(bin, args...)
	// GOGC=50 halves the collector's 4 MB minimum heap: the restart's
	// snapshot load and replay pass it, and run two collections unless the
	// daemon holds the collector off until ready, while the runtime's own
	// initialisation stays well below it.
	cmd.Env = append(os.Environ(), "GOGC=50")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	lines := bufio.NewScanner(stdout)
	type ready struct{ addr, startup string }
	up := make(chan ready, 1)
	go func() {
		startup := ""
		for lines.Scan() {
			line := lines.Text()
			if strings.Contains(line, "start-up: ") {
				startup = line
			}
			if i := strings.Index(line, "listening on "); i >= 0 {
				fields := strings.Fields(line[i+len("listening on "):])
				if len(fields) > 0 {
					up <- ready{fields[0], startup}
				}
			}
		}
		// Drain the rest so the daemon never blocks on a full pipe.
		io.Copy(io.Discard, stdout)
	}()
	select {
	case r := <-up:
		return cmd, "http://" + r.addr, r.startup
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		t.Fatal("daemon never printed its listen address")
		return nil, "", ""
	}
}

// ingestRetry posts one batch, retrying through daemon downtime like
// rfidsim -retry; the daemon's idempotent ingest makes re-sends safe.
func ingestRetry(t *testing.T, client *serve.Client, events []serve.Event) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, err := client.Ingest(events); err == nil {
			return
		} else if time.Now().After(deadline) {
			t.Fatalf("ingest never succeeded: %v", err)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// TestRecoverSmoke is the end-to-end kill -9 drill.
func TestRecoverSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills the daemon")
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

	// Uninterrupted reference, with the same query the daemon attaches.
	w := smokeWorld(t)
	const interval = model.Epoch(300)
	ref := dist.NewCluster(w, dist.MigrateWeights, rfinfer.DefaultConfig())
	ref.Query = dist.ColdChainQuery(w, interval)
	want, err := ref.ReplaySequential(interval)
	if err != nil {
		t.Fatal(err)
	}
	wantAlerts := 0
	for s := range w.Sites {
		wantAlerts += len(ref.SiteQuery(s).Matches())
	}
	events := serve.WorldEvents(w, ref.Departures())

	dataDir := t.TempDir()
	daemon, baseURL, _ := startDaemon(t, bin, dataDir)
	client := &serve.Client{BaseURL: baseURL}

	// Stream the first half, then SIGKILL the daemon mid-interval — no
	// drain, no graceful anything. Strict fsync means every acknowledged
	// batch is durable; the unacknowledged one is re-sent after restart.
	const batch = 256
	cut := 0
	for cut < len(events) && events[cut].Time() < 450 {
		cut++
	}
	sent := 0
	for sent < cut {
		end := min(sent+batch, cut)
		ingestRetry(t, client, events[sent:end])
		sent = end
	}
	if err := daemon.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	daemon.Wait()

	// Restart over the same data directory; recovery replays the
	// snapshot + WAL tail. Re-send the last acknowledged batch too
	// (covering the ack-lost window), then the rest of the stream.
	daemon2, baseURL, startup := startDaemon(t, bin, dataDir)
	defer func() {
		daemon2.Process.Signal(os.Interrupt)
		done := make(chan struct{})
		go func() { daemon2.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			daemon2.Process.Kill()
		}
	}()
	// The collector is held off from exec to ready, so the restart's
	// start-up line counts no collection (see startDaemon's GOGC).
	if !strings.HasPrefix(startup, "recovered from ") || !strings.HasSuffix(startup, ", gc 0") {
		t.Errorf("restart's start-up line %q: want a recovery ending in \", gc 0\"", startup)
	}
	client = &serve.Client{BaseURL: baseURL}
	resend := max(sent-batch, 0)
	for i := resend; i < len(events); i += batch {
		end := min(i+batch, len(events))
		ingestRetry(t, client, events[i:end])
	}
	if _, err := client.Drain(0); err != nil {
		t.Fatal(err)
	}

	got, err := client.Result()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("recovered daemon's Result diverged from uninterrupted reference\n got: %+v\nwant: %+v", got, want)
	}
	alerts, err := client.Alerts(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(alerts) != wantAlerts {
		t.Errorf("recovered daemon raised %d alerts, reference raised %d", len(alerts), wantAlerts)
	}
	if wantAlerts == 0 {
		t.Error("reference raised no alerts; the smoke scenario is too easy")
	}
	st, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.WAL == nil || st.WAL.Snapshots == 0 {
		t.Errorf("daemon reported no durable snapshots: %+v", st.WAL)
	}

	// The directory now belongs to this deployment: a start with another
	// -items (a later flag overrides the earlier one) must be refused before
	// it touches the log, naming what differs.
	args := append([]string{"-addr", "127.0.0.1:0", "-data-dir", dataDir}, smokeWorldFlags...)
	out, err := exec.CommandContext(ctx, bin, append(args, "-items", "4")...).CombinedOutput()
	if err == nil || !strings.Contains(string(out), "sim.ItemsPerCase: recorded 3, started with 4") {
		t.Errorf("start with -items 4 over the -items 3 directory: err = %v, output:\n%s\nwant a refusal naming sim.ItemsPerCase", err, out)
	}
}
