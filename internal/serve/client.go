// A minimal HTTP client for the daemon's API, used by the rfidsim load
// generator, the daemon's demo mode and integration tests.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"
	"time"

	"rfidtrack/internal/dist"
	"rfidtrack/internal/model"
	"rfidtrack/internal/stream"
	"rfidtrack/internal/wal"
)

// Client talks to a running rfidtrackd over HTTP.
type Client struct {
	// BaseURL is the daemon root, e.g. "http://localhost:8080".
	BaseURL string
	// HTTP is the underlying client; nil uses http.DefaultClient.
	HTTP *http.Client

	// binEncs pools binary-frame encoders, one per in-flight request:
	// concurrent IngestBin calls each take their own builder instead of
	// serializing on a shared one, and a steady-state producer re-encodes
	// into recycled buffers — zero allocations per frame (see
	// BenchmarkClientIngestBinEncode).
	binEncs sync.Pool
}

// httpClient resolves the underlying client.
func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// HTTPError is a non-2xx daemon response, carrying the status code so
// callers can tell a retryable condition (503 while the daemon drains, a
// proxy's 502) from a permanent one (400 malformed batch, 404, 415 wrong
// Content-Type). Every Client method returns *HTTPError for non-2xx
// statuses; plain transport failures keep their own error types.
type HTTPError struct {
	// Status is the HTTP status code of the refusal.
	Status int
	// Body is the (truncated) response body, usually the daemon's JSON
	// error object.
	Body string
	// Method and Path identify the refused request.
	Method, Path string
}

// Error formats the refusal with its status code.
func (e *HTTPError) Error() string {
	return fmt.Sprintf("serve: %s %s: status %d: %s", e.Method, e.Path, e.Status, e.Body)
}

// Temporary reports whether the refusal is worth retrying: 5xx statuses
// are server-side conditions that a later attempt may outlive, 4xx means
// the request itself is wrong and will fail identically forever.
func (e *HTTPError) Temporary() bool { return e.Status >= 500 }

// Retryable reports whether an error from a Client method is worth
// retrying: transport failures (connection refused, reset — the daemon may
// be restarting) and 5xx statuses are; 4xx statuses are permanent client
// errors that retrying can never fix. A nil error is not retryable.
func Retryable(err error) bool {
	if err == nil {
		return false
	}
	var he *HTTPError
	if errors.As(err, &he) {
		return he.Temporary()
	}
	return true
}

// checkStatus drains and closes the body, decoding it into out (when
// non-nil) on success and into a *HTTPError on a non-2xx status.
func checkStatus(resp *http.Response, out any) error {
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return &HTTPError{
			Status: resp.StatusCode,
			Body:   string(bytes.TrimSpace(body)),
			Method: resp.Request.Method,
			Path:   resp.Request.URL.Path,
		}
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Ingest posts a batch of events as JSON lines.
func (c *Client) Ingest(events []Event) (IngestResponse, error) {
	var body bytes.Buffer
	if err := WriteEvents(&body, events); err != nil {
		return IngestResponse{}, err
	}
	resp, err := c.httpClient().Post(c.BaseURL+"/ingest", "application/x-ndjson", &body)
	if err != nil {
		return IngestResponse{}, err
	}
	var ir IngestResponse
	err = checkStatus(resp, &ir)
	return ir, err
}

// Drain asks the daemon to run checkpoints through the given epoch
// (0 = its configured horizon) and returns the post-drain stats.
func (c *Client) Drain(through model.Epoch) (Stats, error) {
	resp, err := c.httpClient().Post(fmt.Sprintf("%s/drain?through=%d", c.BaseURL, through), "", nil)
	if err != nil {
		return Stats{}, err
	}
	var st Stats
	err = checkStatus(resp, &st)
	return st, err
}

// Stats fetches the daemon's counters.
func (c *Client) Stats() (Stats, error) {
	resp, err := c.httpClient().Get(c.BaseURL + "/stats")
	if err != nil {
		return Stats{}, err
	}
	var st Stats
	err = checkStatus(resp, &st)
	return st, err
}

// Result fetches the daemon's accumulated replay result.
func (c *Client) Result() (dist.Result, error) {
	resp, err := c.httpClient().Get(c.BaseURL + "/result")
	if err != nil {
		return dist.Result{}, err
	}
	var res dist.Result
	err = checkStatus(resp, &res)
	return res, err
}

// SnapshotNow asks the daemon to commit a durable full-state snapshot
// (POST /snapshot), returning the committed manifest.
func (c *Client) SnapshotNow() (wal.Manifest, error) {
	resp, err := c.httpClient().Post(c.BaseURL+"/snapshot", "", nil)
	if err != nil {
		return wal.Manifest{}, err
	}
	var m wal.Manifest
	err = checkStatus(resp, &m)
	return m, err
}

// Alerts long-polls the alert log from seq since, waiting up to waitMS
// milliseconds server-side when none are available.
func (c *Client) Alerts(since, waitMS int) ([]Alert, error) {
	resp, err := c.httpClient().Get(fmt.Sprintf("%s/alerts?since=%d&wait_ms=%d", c.BaseURL, since, waitMS))
	if err != nil {
		return nil, err
	}
	var alerts []Alert
	err = checkStatus(resp, &alerts)
	return alerts, err
}

// followLimit is the per-page batch bound Follow requests.
const followLimit = defaultPollLimit

// AlertsCursor long-polls the alert feed in cursor mode: up to limit
// alerts matching f, resuming from cursor ("" = the log's beginning),
// waiting up to waitMS milliseconds server-side. The reply's Cursor
// resumes exactly past the returned alerts.
func (c *Client) AlertsCursor(ctx context.Context, f Filter, cursor string, waitMS, limit int) (AlertsPage, error) {
	u := fmt.Sprintf("%s/alerts?wait_ms=%d&limit=%d", c.BaseURL, waitMS, limit)
	if cursor != "" {
		u += "&cursor=" + url.QueryEscape(cursor)
	}
	if spec := f.Encode(); spec != "" {
		u += "&filter=" + url.QueryEscape(spec)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return AlertsPage{}, err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return AlertsPage{}, err
	}
	var page AlertsPage
	err = checkStatus(resp, &page)
	return page, err
}

// Follow streams the alert feed to fn until ctx ends, the daemon reports
// the feed complete (a graceful shutdown), or a permanent error occurs.
// It is the durable-cursor consumer loop: transport failures and 5xx
// refusals retry with exponential backoff from the last good cursor, and
// alerts replayed by an at-least-once resume are suppressed by sequence
// number — so fn observes every alert exactly once, in order, across
// consumer disconnects AND a daemon kill -9 + restart. It returns the
// final resume cursor; pass it to a later Follow to continue where this
// one stopped. A ctx cancellation is a normal stop, not an error.
func (c *Client) Follow(ctx context.Context, f Filter, cursor string, fn func(Alert)) (string, error) {
	var nextSeq int64
	if cursor != "" {
		seq, err := stream.DecodeAlertCursor(cursor)
		if err != nil {
			return cursor, err
		}
		nextSeq = seq
	}
	const minBackoff = 50 * time.Millisecond
	backoff := minBackoff
	for {
		if ctx.Err() != nil {
			return cursor, nil
		}
		page, err := c.AlertsCursor(ctx, f, cursor, 25000, followLimit)
		if err != nil {
			if ctx.Err() != nil {
				return cursor, nil
			}
			if !Retryable(err) {
				return cursor, err
			}
			select {
			case <-ctx.Done():
				return cursor, nil
			case <-time.After(backoff):
			}
			if backoff *= 2; backoff > time.Second {
				backoff = time.Second
			}
			continue
		}
		backoff = minBackoff
		for _, a := range page.Alerts {
			if int64(a.Seq) < nextSeq {
				continue // duplicate replayed by an at-least-once resume
			}
			fn(a)
			nextSeq = int64(a.Seq) + 1
		}
		// Adopt the server's cursor (it advances past non-matching alerts
		// too) unless it would rewind behind an alert already delivered.
		if pos, derr := stream.DecodeAlertCursor(page.Cursor); derr == nil && pos >= nextSeq {
			cursor = page.Cursor
		} else {
			cursor = stream.EncodeAlertCursor(nextSeq)
		}
		if page.Done {
			return cursor, nil
		}
	}
}
