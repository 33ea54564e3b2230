package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"rfidtrack/internal/dist"
	"rfidtrack/internal/model"
	"rfidtrack/internal/rfinfer"
)

// postLines posts a JSON-lines body to the ingest endpoint.
func postLines(t *testing.T, url string, events []Event) IngestResponse {
	t.Helper()
	var body bytes.Buffer
	if err := WriteEvents(&body, events); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/ingest", "application/x-ndjson", &body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /ingest status %d", resp.StatusCode)
	}
	var ir IngestResponse
	if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
		t.Fatal(err)
	}
	return ir
}

// getJSON decodes a GET endpoint into out and returns the status code.
func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

// TestHTTPEndToEnd drives the whole daemon surface over HTTP: ingest the
// world as JSON lines, drain, and check /result equals the sequential
// reference, with /stats, /healthz, /snapshot and both alert feeds live.
func TestHTTPEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	w := testWorld(t)
	const interval = 300

	ref := dist.NewCluster(w, dist.MigrateWeights, rfinfer.DefaultConfig())
	ref.Query = exposureQuery(w, interval)
	want, err := ref.ReplaySequential(interval)
	if err != nil {
		t.Fatal(err)
	}
	refAlerts := 0
	for s := range w.Sites {
		refAlerts += len(ref.SiteQuery(s).Matches())
	}

	c := dist.NewCluster(w, dist.MigrateWeights, rfinfer.DefaultConfig())
	srv, err := New(c, Config{Interval: interval, Horizon: w.Epochs, Query: exposureQuery(w, interval)})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	events := WorldEvents(w, ref.Departures())
	ir := postLines(t, ts.URL, events)
	if ir.Queued != len(events) || ir.BadLines != 0 {
		t.Fatalf("ingest response %+v, want %d queued", ir, len(events))
	}

	// Malformed lines are skipped and counted, not fatal.
	resp, err := http.Post(ts.URL+"/ingest", "application/x-ndjson",
		strings.NewReader("not json\n{\"type\":\"bogus\"}\n"))
	if err != nil {
		t.Fatal(err)
	}
	var badIR IngestResponse
	if err := json.NewDecoder(resp.Body).Decode(&badIR); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if badIR.BadLines != 2 || badIR.Queued != 0 {
		t.Errorf("malformed ingest response %+v, want 2 bad lines and 0 queued", badIR)
	}

	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Errorf("/healthz = %d", code)
	}

	// SSE subscriber started before the drain sees the first alert live.
	sseCtx, sseCancel := context.WithCancel(context.Background())
	defer sseCancel()
	sseReq, _ := http.NewRequestWithContext(sseCtx, "GET", ts.URL+"/alerts/stream?since=0", nil)
	sseResp, err := http.DefaultClient.Do(sseReq)
	if err != nil {
		t.Fatal(err)
	}
	defer sseResp.Body.Close()
	sseFirst := make(chan Alert, 1)
	go func() {
		sc := bufio.NewScanner(sseResp.Body)
		for sc.Scan() {
			line := sc.Text()
			if data, ok := strings.CutPrefix(line, "data: "); ok {
				var a Alert
				if json.Unmarshal([]byte(data), &a) == nil {
					sseFirst <- a
					return
				}
			}
		}
	}()

	if resp, err := http.Post(ts.URL+"/drain", "", nil); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST /drain status %d", resp.StatusCode)
		}
	}

	var got dist.Result
	if code := getJSON(t, ts.URL+"/result", &got); code != http.StatusOK {
		t.Fatalf("/result status %d", code)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("HTTP /result diverged from sequential reference\n got: %+v\nwant: %+v", got, want)
	}

	var st Stats
	if code := getJSON(t, ts.URL+"/stats", &st); code != http.StatusOK {
		t.Fatalf("/stats status %d", code)
	}
	if st.Feed.Observed != len(events)-len(ref.Departures()) {
		t.Errorf("stats observed %d readings, want %d", st.Feed.Observed, len(events)-len(ref.Departures()))
	}
	if st.Alerts != refAlerts || refAlerts == 0 {
		t.Errorf("stats alerts = %d, want %d > 0", st.Alerts, refAlerts)
	}
	if len(st.Memo) != len(w.Sites) || st.Memo[0].PosteriorsComputed == 0 {
		t.Errorf("stats memo counters missing: %+v", st.Memo)
	}

	var snap SiteSnapshot
	if code := getJSON(t, ts.URL+"/snapshot?site=0", &snap); code != http.StatusOK {
		t.Fatalf("/snapshot status %d", code)
	}
	if snap.Site != 0 || len(snap.Containment) == 0 {
		t.Errorf("snapshot empty: %+v", snap)
	}
	if code := getJSON(t, ts.URL+"/snapshot?site=99", nil); code != http.StatusNotFound {
		t.Errorf("/snapshot?site=99 = %d, want 404", code)
	}
	if code := getJSON(t, ts.URL+"/snapshot", nil); code != http.StatusBadRequest {
		t.Errorf("/snapshot without site = %d, want 400", code)
	}

	var alerts []Alert
	if code := getJSON(t, ts.URL+"/alerts?since=0", &alerts); code != http.StatusOK {
		t.Fatalf("/alerts status %d", code)
	}
	if len(alerts) != refAlerts {
		t.Errorf("long-poll returned %d alerts, want %d", len(alerts), refAlerts)
	}
	for i, a := range alerts {
		if a.Seq != i {
			t.Errorf("alert %d has seq %d", i, a.Seq)
		}
	}
	var tail []Alert
	if code := getJSON(t, fmt.Sprintf("%s/alerts?since=%d&wait_ms=10", ts.URL, refAlerts), &tail); code != http.StatusOK || len(tail) != 0 {
		t.Errorf("/alerts past the end = %d alerts (status %d), want none", len(tail), code)
	}

	select {
	case a := <-sseFirst:
		if a.Seq != 0 {
			t.Errorf("SSE first alert seq = %d, want 0", a.Seq)
		}
	case <-time.After(5 * time.Second):
		t.Error("SSE stream delivered no alert within 5s")
	}

	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp2, err := http.Post(ts.URL+"/ingest", "application/x-ndjson", strings.NewReader(`{"type":"reading","site":0,"t":1,"tag":1,"mask":1}`+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("ingest after shutdown = %d, want 503", resp2.StatusCode)
	}
}

// TestHTTPIngestBatch drives the site-addressed batch fast path over the
// wire: valid batches are queued and observed, malformed bodies and
// unknown sites are 400s, and the daemon stays healthy throughout.
func TestHTTPIngestBatch(t *testing.T) {
	w := testWorld(t)
	c := dist.NewCluster(w, dist.MigrateNone, rfinfer.DefaultConfig())
	srv, err := New(c, Config{Interval: 300})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := &Client{BaseURL: ts.URL}

	item := w.Sites[1].Items()[0]
	batch := []dist.Reading{{T: 10, ID: item, Mask: 1}, {T: 11, ID: item, Mask: 1}}
	ir, err := client.IngestBatch(1, batch)
	if err != nil {
		t.Fatal(err)
	}
	if ir.Queued != len(batch) {
		t.Errorf("queued %d, want %d", ir.Queued, len(batch))
	}
	if _, err := client.IngestBatch(99, batch); err == nil {
		t.Error("unknown site accepted over HTTP")
	}
	resp, err := http.Post(ts.URL+"/ingest/batch", "application/json", strings.NewReader("not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed batch body = %d, want 400", resp.StatusCode)
	}
	if _, err := client.Drain(0); err != nil {
		t.Fatal(err)
	}
	st, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Feed.Observed != len(batch) || st.Invalid != 0 {
		t.Errorf("observed=%d invalid=%d, want %d observed and 0 invalid", st.Feed.Observed, st.Invalid, len(batch))
	}
	if len(st.Shards) != len(w.Sites) || st.Shards[1].Received != len(batch) {
		t.Errorf("shard stats missing the batch: %+v", st.Shards)
	}
}

// TestReadEventsOversizedLine checks that one over-long line is skipped
// and counted without aborting the stream or losing its neighbors.
func TestReadEventsOversizedLine(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteEvents(&buf, []Event{Reading(0, 1, 2, 3)}); err != nil {
		t.Fatal(err)
	}
	buf.WriteString(strings.Repeat("x", 3*maxLineBytes) + "\n")
	if err := WriteEvents(&buf, []Event{Reading(0, 4, 5, 6)}); err != nil {
		t.Fatal(err)
	}
	var got []Event
	bad, err := ReadEvents(&buf, func(e Event) error { got = append(got, e); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if bad != 1 || len(got) != 2 {
		t.Errorf("bad=%d events=%d, want 1 bad and both neighbors decoded", bad, len(got))
	}
	if len(got) == 2 && (got[0].T != 1 || got[1].T != 4) {
		t.Errorf("decoded wrong events: %+v", got)
	}
}

// TestIngestFailureReportsQueued checks that a POST /ingest whose body
// fails after a flush still reports what it queued: 600 valid lines then
// a read error must answer 400 with the first 512-event batch counted.
func TestIngestFailureReportsQueued(t *testing.T) {
	w := testWorld(t)
	c := dist.NewCluster(w, dist.MigrateNone, rfinfer.DefaultConfig())
	srv, err := New(c, Config{Interval: 300})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())

	var body bytes.Buffer
	if err := WriteEvents(&body, WorldEvents(w, nil)[:600]); err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", "/ingest", io.MultiReader(&body, iotest.ErrReader(errors.New("connection reset"))))
	req.Header.Set("Content-Type", "application/x-ndjson")
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)

	var reply struct {
		Error string `json:"error"`
		IngestResponse
	}
	if err := json.NewDecoder(rec.Body).Decode(&reply); err != nil {
		t.Fatal(err)
	}
	if rec.Code != http.StatusBadRequest || reply.Queued != ingestBatch || reply.BadLines != 0 || !strings.Contains(reply.Error, "connection reset") {
		t.Errorf("status %d, reply %+v; want 400, queued %d, 0 bad lines and the read error", rec.Code, reply, ingestBatch)
	}
	if st := srv.Stats(); st.Shards[0].Received+st.Shards[1].Received+st.Shards[2].Received != ingestBatch {
		t.Errorf("shards received %+v, want %d in total", st.Shards, ingestBatch)
	}
}

// TestWorldEventsOrder pins WorldEvents' output order element for element
// against the sort it replaced (sort.SliceStable on Time over the same
// flatten), so the typed sort cannot reorder same-epoch events — the order
// every recorded stream, WAL and alert sequence derives from.
func TestWorldEventsOrder(t *testing.T) {
	w := testWorld(t)
	deps := dist.WorldDepartures(w)
	var want []Event
	for s, tr := range w.Sites {
		for i := range tr.Tags {
			if tg := &tr.Tags[i]; tg.Kind != model.KindPallet {
				for _, rd := range tg.Readings {
					want = append(want, Reading(s, rd.T, tg.ID, rd.Mask))
				}
			}
		}
	}
	for _, d := range deps {
		want = append(want, Depart(d))
	}
	sort.SliceStable(want, func(i, j int) bool { return want[i].Time() < want[j].Time() })

	got := WorldEvents(w, deps)
	if len(deps) == 0 || len(got) < 1000 {
		t.Fatalf("world too small to say anything: %d events, %d departures", len(got), len(deps))
	}
	if !reflect.DeepEqual(got, want) {
		for i := range want {
			if i >= len(got) || got[i] != want[i] {
				t.Fatalf("order diverges at %d of %d: got %+v, want %+v", i, len(want), got[i], want[i])
			}
		}
		t.Fatalf("got %d events, want %d", len(got), len(want))
	}
}
