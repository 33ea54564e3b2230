package serve

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"rfidtrack/internal/dist"
)

// TestClientTypedStatuses pins the satellite contract of the client sweep:
// every Client method surfaces a non-2xx daemon response as a typed
// *HTTPError carrying the status, method and path — never a stringly
// error the caller would have to parse to gate retries on.
func TestClientTypedStatuses(t *testing.T) {
	const status = http.StatusTeapot
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, status, map[string]string{"error": "nope"})
	}))
	defer ts.Close()
	c := &Client{BaseURL: ts.URL}

	calls := []struct {
		name, method, path string
		call               func() error
	}{
		{"Ingest", "POST", "/ingest", func() error { _, err := c.Ingest([]Event{Reading(0, 1, 0, 1)}); return err }},
		{"IngestBin", "POST", "/ingest/bin", func() error {
			_, err := c.IngestBin(0, []dist.Reading{{T: 1, ID: 0, Mask: 1}})
			return err
		}},
		{"IngestBinAll", "POST", "/ingest/bin", func() error {
			_, err := c.IngestBinAll([][]dist.Reading{{{T: 1, ID: 0, Mask: 1}}})
			return err
		}},
		{"Drain", "POST", "/drain", func() error { _, err := c.Drain(100); return err }},
		{"Stats", "GET", "/stats", func() error { _, err := c.Stats(); return err }},
		{"Result", "GET", "/result", func() error { _, err := c.Result(); return err }},
		{"SnapshotNow", "POST", "/snapshot", func() error { _, err := c.SnapshotNow(); return err }},
		{"Alerts", "GET", "/alerts", func() error { _, err := c.Alerts(0, 0); return err }},
		{"ONSLookup", "GET", "/ons", func() error { _, err := c.ONSLookup(0); return err }},
	}
	for _, tc := range calls {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.call()
			var he *HTTPError
			if !errors.As(err, &he) {
				t.Fatalf("%s returned %T (%v), want *HTTPError", tc.name, err, err)
			}
			if he.Status != status {
				t.Errorf("Status = %d, want %d", he.Status, status)
			}
			if he.Method != tc.method || he.Path != tc.path {
				t.Errorf("refusal identifies %s %s, want %s %s", he.Method, he.Path, tc.method, tc.path)
			}
			if he.Body == "" {
				t.Error("refusal carries no body")
			}
		})
	}
}

// TestRetryableGating is the 400-vs-503 table: retry loops (the rfidsim
// load generator's postRetry, the peer migration sender) must re-send on
// transport failures and 5xx — the daemon-restarting and daemon-draining
// signatures — and fail fast on 4xx, which would fail identically forever.
func TestRetryableGating(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"400 bad request", &HTTPError{Status: http.StatusBadRequest}, false},
		{"404 not found", &HTTPError{Status: http.StatusNotFound}, false},
		{"415 wrong content type", &HTTPError{Status: http.StatusUnsupportedMediaType}, false},
		{"500 internal", &HTTPError{Status: http.StatusInternalServerError}, true},
		{"502 bad gateway", &HTTPError{Status: http.StatusBadGateway}, true},
		{"503 draining", &HTTPError{Status: http.StatusServiceUnavailable}, true},
		{"wrapped 400", fmt.Errorf("peer 1 ingest: %w", &HTTPError{Status: http.StatusBadRequest}), false},
		{"wrapped 503", fmt.Errorf("peer 1 ingest: %w", &HTTPError{Status: http.StatusServiceUnavailable}), true},
		{"transport failure", errors.New("connection refused"), true},
	}
	for _, tc := range cases {
		if got := Retryable(tc.err); got != tc.want {
			t.Errorf("Retryable(%s) = %v, want %v", tc.name, got, tc.want)
		}
	}
}
