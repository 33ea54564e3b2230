package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestSubscriptionCloseWakes pins the close-latency fix: Close must wake a
// pump that is asleep waiting for a signal with no alert ever coming,
// and close C promptly — not after the next publish or a poll tick.
func TestSubscriptionCloseWakes(t *testing.T) {
	l := newAlertLog()
	sub := newRegistry(l).subscribeChannel(MatchAll(), 0)
	// Let the pump reach its wait before closing.
	time.Sleep(20 * time.Millisecond)
	start := time.Now()
	sub.Close()
	select {
	case _, ok := <-sub.C:
		if ok {
			t.Fatal("subscription delivered an alert that was never published")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("subscription channel not closed within 2s of Close")
	}
	if waited := time.Since(start); waited > 500*time.Millisecond {
		t.Errorf("Close took %v to close C; the cancel broadcast should make it immediate", waited)
	}
	// Close is idempotent.
	sub.Close()
}

// TestSubscriptionCloseDuringPoll pins the cursor-mode half of the close
// contract: Close fired while a Poll is blocked waiting for an alert that
// never comes must fail the poll immediately (done=true), not after the
// poll's wait budget expires.
func TestSubscriptionCloseDuringPoll(t *testing.T) {
	l := newAlertLog()
	r := newRegistry(l)
	sub := &Subscription{sub: r.register(MatchAll(), 0)}

	type pollResult struct {
		alerts []Alert
		done   bool
		took   time.Duration
	}
	res := make(chan pollResult, 1)
	start := time.Now()
	go func() {
		alerts, done := sub.Poll(100, 30*time.Second)
		res <- pollResult{alerts, done, time.Since(start)}
	}()
	// Let the poll reach its wait before closing.
	time.Sleep(20 * time.Millisecond)
	sub.Close()

	select {
	case pr := <-res:
		if !pr.done {
			t.Error("Poll returned done=false after Close; a closed subscription is finished")
		}
		if len(pr.alerts) != 0 {
			t.Errorf("Poll returned %d alerts that were never published", len(pr.alerts))
		}
		if pr.took > 500*time.Millisecond {
			t.Errorf("Poll took %v to observe Close; the done channel should make it immediate", pr.took)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Poll still blocked 2s after Close; close-during-poll must fail the poll immediately")
	}

	// And a poll issued after Close fails without waiting at all.
	start = time.Now()
	if _, done := sub.Poll(100, 30*time.Second); !done {
		t.Error("Poll on a closed subscription returned done=false")
	}
	if took := time.Since(start); took > 500*time.Millisecond {
		t.Errorf("post-Close Poll took %v, want immediate", took)
	}
}

// TestAlertStreamClientDisconnect pins that an SSE handler whose client
// goes away returns instead of looping on the alert log forever: after the
// request context is canceled, the test server's Close — which waits for
// outstanding handlers — must not hang.
func TestAlertStreamClientDisconnect(t *testing.T) {
	l := newAlertLog()
	srv := &Server{alerts: l, registry: newRegistry(l)}
	ts := httptest.NewServer(http.HandlerFunc(srv.handleAlertStream))

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"?since=0", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("SSE stream status %d, want 200", resp.StatusCode)
	}
	// Drop the client mid-stream with no alert ever published; the handler
	// is asleep in the log's timed wait and must notice the disconnect.
	cancel()
	resp.Body.Close()

	done := make(chan struct{})
	go func() {
		ts.Close() // waits for the handler to return
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("SSE handler did not return within 5s of client disconnect")
	}
}

// TestLegacyAlertsClientDisconnect pins that the legacy long-poll
// (?since=N&wait_ms=W, the bare-array tail) ends its wait with the request:
// a client that hangs up 50 ms into a 3 s wait must not hold the handler
// and its subscriber for the rest of it.
func TestLegacyAlertsClientDisconnect(t *testing.T) {
	l := newAlertLog()
	srv := &Server{alerts: l, registry: newRegistry(l)}
	returned := make(chan time.Time, 1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		srv.handleAlerts(w, r)
		returned <- time.Now()
	}))
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"?since=0&wait_ms=3000", nil)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
		t.Fatalf("request returned status %d before its context ended, want a hang-up", resp.StatusCode)
	}
	select {
	case at := <-returned:
		if took := at.Sub(start); took > time.Second {
			t.Errorf("handler returned %v after the request started, want soon after the 50 ms hang-up", took)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("legacy /alerts handler did not return within 5s of client disconnect")
	}
}
