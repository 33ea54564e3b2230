package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"rfidtrack/internal/model"
	"rfidtrack/internal/serve"
)

// oneConn returns an HTTP client that keeps a single connection to the
// daemon: the generator is allowed one producer and one consumer
// connection, no more than the box has cores.
func oneConn() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

// postResult is one request's outcome as the producer saw it.
type postResult struct {
	due, sent, acked time.Time
	status           int
}

// post writes one pre-encoded body and waits for the status.
func post(hc *http.Client, baseURL string, b *body, rd *bytes.Reader) (int, error) {
	rd.Reset(b.data)
	req, err := http.NewRequest(http.MethodPost, baseURL+b.path, rd)
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", b.contentType)
	resp, err := hc.Do(req)
	if err != nil {
		return 0, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, nil
}

// closedLoop posts the bodies back to back on one connection: each request
// is sent when the previous one completes, so a slower daemon receives
// less load. A request is due the moment it is sent.
func closedLoop(hc *http.Client, baseURL string, bodies []body) ([]postResult, error) {
	out := make([]postResult, len(bodies))
	var rd bytes.Reader
	for i := range bodies {
		sent := time.Now()
		status, err := post(hc, baseURL, &bodies[i], &rd)
		if err != nil {
			return out[:i], fmt.Errorf("POST %s #%d: %w", bodies[i].path, i, err)
		}
		out[i] = postResult{due: sent, sent: sent, acked: time.Now(), status: status}
	}
	return out, nil
}

// dueTimes lays n requests on a fixed schedule: request i is due
// i*eventsPer/rate seconds after start. The schedule is a function of the
// index alone, so a stall never pushes later requests back.
func dueTimes(start time.Time, n, eventsPer int, rate float64) []time.Time {
	due := make([]time.Time, n)
	step := float64(eventsPer) / rate * float64(time.Second)
	for i := range due {
		due[i] = start.Add(time.Duration(float64(i) * step))
	}
	return due
}

// openLoop posts the bodies on the schedule regardless of how the daemon
// keeps up. With one connection a request cannot start before the previous
// one's reply; when that makes it late, the lateness is part of its
// latency, because every request is timed from when it was due.
func openLoop(hc *http.Client, baseURL string, bodies []body, due []time.Time) ([]postResult, error) {
	out := make([]postResult, len(bodies))
	var rd bytes.Reader
	for i := range bodies {
		if wait := time.Until(due[i]); wait > 0 {
			time.Sleep(wait)
		}
		sent := time.Now()
		status, err := post(hc, baseURL, &bodies[i], &rd)
		if err != nil {
			return out[:i], fmt.Errorf("POST %s #%d: %w", bodies[i].path, i, err)
		}
		out[i] = postResult{due: due[i], sent: sent, acked: time.Now(), status: status}
	}
	return out, nil
}

// arrival is one alert as the SSE consumer received it.
type arrival struct {
	alert serve.Alert
	at    time.Time
}

// sseConsumer is the benchmark's one alert consumer: a GET /alerts/stream
// connection whose reader stamps every alert on arrival.
type sseConsumer struct {
	cancel context.CancelFunc
	done   chan struct{}

	mu       sync.Mutex
	arrivals []arrival
	err      error
}

// followAlerts opens the stream and returns once the daemon has accepted
// the subscription, so no alert can be published before the consumer is
// attached.
func followAlerts(baseURL string) (*sseConsumer, error) {
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/alerts/stream", nil)
	if err != nil {
		cancel()
		return nil, err
	}
	hc := oneConn()
	resp, err := hc.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("GET /alerts/stream: status %d", resp.StatusCode)
	}
	c := &sseConsumer{cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(c.done)
		defer hc.CloseIdleConnections()
		defer resp.Body.Close()
		err := readSSE(resp.Body, func(a serve.Alert) {
			at := time.Now()
			c.mu.Lock()
			c.arrivals = append(c.arrivals, arrival{alert: a, at: at})
			c.mu.Unlock()
		})
		if err != nil && ctx.Err() == nil {
			c.mu.Lock()
			c.err = err
			c.mu.Unlock()
		}
	}()
	return c, nil
}

// readSSE parses a server-sent event stream, calling emit for every
// `data:` payload of an alert event until the stream ends.
func readSSE(r io.Reader, emit func(serve.Alert)) error {
	br := bufio.NewReader(r)
	for {
		line, err := br.ReadString('\n')
		if payload, ok := strings.CutPrefix(line, "data: "); ok && strings.Contains(payload, `"seq"`) {
			var a serve.Alert
			if jerr := json.Unmarshal([]byte(payload), &a); jerr != nil {
				return fmt.Errorf("alert stream: %w", jerr)
			}
			emit(a)
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// count returns how many alerts have arrived so far.
func (c *sseConsumer) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.arrivals)
}

// waitFor blocks until n alerts have arrived or the timeout passes.
func (c *sseConsumer) waitFor(n int, timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for c.count() < n && time.Now().Before(deadline) {
		select {
		case <-c.done:
			return
		case <-time.After(time.Millisecond):
		}
	}
}

// stop closes the stream, waits for the reader and returns what arrived.
func (c *sseConsumer) stop() ([]arrival, error) {
	c.cancel()
	<-c.done
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.arrivals, c.err
}

// triggerIndex returns, for every checkpoint boundary k*interval
// (k = 1..), the index of the first body carrying an event at or past it —
// the request whose arrival makes that checkpoint due — or -1 when no body
// reaches the boundary (the final interval closes only on drain).
func triggerIndex(bodies []body, interval model.Epoch, checkpoints int) []int {
	trig := make([]int, checkpoints)
	i := 0
	for k := range trig {
		boundary := model.Epoch(k+1) * interval
		for i < len(bodies) && bodies[i].lastT < boundary {
			i++
		}
		if i == len(bodies) {
			trig[k] = -1
			continue
		}
		trig[k] = i
	}
	return trig
}

// alertLatencies returns, in milliseconds, arrival − due time of the
// triggering request for every alert whose checkpoint was triggered by a
// request. It excludes the window length (the clock starts when the
// boundary-crossing event was due, not when the episode began) and
// includes every queue between the socket and the consumer.
func alertLatencies(arrivals []arrival, ckptOf, trig []int, posts []postResult) []float64 {
	var ms []float64
	for _, a := range arrivals {
		seq := a.alert.Seq
		if seq < 0 || seq >= len(ckptOf) {
			continue // counted as a transcript mismatch by the caller
		}
		t := trig[ckptOf[seq]]
		if t < 0 || t >= len(posts) {
			continue
		}
		ms = append(ms, float64(a.at.Sub(posts[t].due))/float64(time.Millisecond))
	}
	return ms
}

// generatorLateness returns, per request in milliseconds, how late the
// generator itself was: send time minus the moment the request could
// first have been sent — its due time, or the previous reply when the one
// connection was still busy then. Waiting for the daemon is the daemon's
// latency (requests are timed from their due time); only what is left is
// the generator's own oversleeping, and a run where that is large measured
// the generator.
func generatorLateness(posts []postResult) []float64 {
	ms := make([]float64, len(posts))
	for i, p := range posts {
		ready := p.due
		if i > 0 && posts[i-1].acked.After(ready) {
			ready = posts[i-1].acked
		}
		ms[i] = float64(p.sent.Sub(ready)) / float64(time.Millisecond)
	}
	return ms
}

// ackLatencies returns 2xx-received − due time per request, in
// milliseconds.
func ackLatencies(posts []postResult) []float64 {
	ms := make([]float64, 0, len(posts))
	for _, p := range posts {
		ms = append(ms, float64(p.acked.Sub(p.due))/float64(time.Millisecond))
	}
	return ms
}

// getJSON fetches a daemon endpoint into out.
func getJSON(hc *http.Client, url string, out any) error {
	resp, err := hc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("GET %s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(msg))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
