// The HTTP front end: JSON-lines ingestion plus observability and alert
// feeds. All handlers are thin adapters over the Server's Go API, so the
// in-process and network paths share validation, backpressure and
// determinism behavior.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"rfidtrack/internal/dist"
	"rfidtrack/internal/model"
	"rfidtrack/internal/stream"
)

// ingestBatch bounds how many parsed events one Ingest call carries; the
// HTTP body is chunked into batches of this size so one huge POST cannot
// monopolize the queue.
const ingestBatch = 512

// Handler returns the daemon's HTTP API:
//
//	POST /ingest                JSON-lines of reading/depart events
//	POST /ingest/batch          one site's readings as a single JSON batch
//	POST /ingest/bin            binary batch frame (application/octet-stream)
//	POST /drain?through=N       run checkpoints through epoch N (0 = horizon)
//	GET  /healthz               liveness + pipeline health
//	GET  /stats                 Stats (ingest, shards, cluster, memo, scheduler, WAL)
//	GET  /snapshot?site=N       SiteSnapshot of one site's estimates
//	POST /snapshot              force a durable full-state snapshot (needs DataDir)
//	GET  /result                the accumulated dist.Result
//	GET  /alerts?since=N&wait_ms=M   long-poll the alert log (legacy bare array)
//	GET  /alerts?cursor=C&filter=F   cursor long-poll: AlertsPage with resume cursor
//	GET  /alerts/stream?cursor=C     server-sent events alert feed; reconnect
//	                                 resumes from the Last-Event-ID header
//	POST /peer/migrate          RFM1 migration frame from a cluster peer
//	GET  /ons?tag=N             naming-service lookup (tag -> owning site)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /ingest", s.handleIngest)
	mux.HandleFunc("POST /ingest/batch", s.handleIngestBatch)
	mux.HandleFunc("POST /ingest/bin", s.handleIngestBin)
	mux.HandleFunc("POST /drain", s.handleDrain)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})
	mux.HandleFunc("GET /snapshot", s.handleSnapshot)
	mux.HandleFunc("POST /snapshot", s.handleSnapshotNow)
	mux.HandleFunc("GET /result", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Result())
	})
	mux.HandleFunc("GET /alerts", s.handleAlerts)
	mux.HandleFunc("GET /alerts/stream", s.handleAlertStream)
	mux.HandleFunc("POST /peer/migrate", s.handlePeerMigrate)
	mux.HandleFunc("GET /ons", s.handleONS)
	mux.HandleFunc("POST /repl/subscribe", s.handleReplSubscribe)
	mux.HandleFunc("POST /gossip", s.handleGossip)
	mux.HandleFunc("GET /gossip", s.handleGossipView)
	return mux
}

// IngestResponse is the POST /ingest reply.
type IngestResponse struct {
	// Queued is the number of parsed events accepted into the queue.
	Queued int `json:"queued"`
	// BadLines counts request lines that failed to parse (skipped).
	BadLines int `json:"bad_lines"`
}

// ingestBatches recycles handleIngest's event batches across requests.
var ingestBatches = sync.Pool{New: func() any {
	b := make([]Event, 0, ingestBatch)
	return &b
}}

// handleIngest streams the request body's JSON lines into the ingest
// shards in bounded batches. A full stripe blocks the request — HTTP
// clients see backpressure as latency, never as data loss. The body must
// declare application/x-ndjson, the same stance /ingest/batch and
// /ingest/bin take: a producer posting another codec here would otherwise
// have every line silently counted bad, which masks the misconfiguration.
// A request that fails part-way still reports what it queued before the
// failure next to the error, so a producer can tell that part landed.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if !contentTypeIs(r, "application/x-ndjson") {
		s.reject415(w, r, "application/x-ndjson")
		return
	}
	var resp IngestResponse
	pooled := ingestBatches.Get().(*[]Event)
	defer ingestBatches.Put(pooled)
	batch := (*pooled)[:0]
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		if err := s.Ingest(batch); err != nil {
			return err
		}
		resp.Queued += len(batch)
		// Ingest buckets synchronously and does not retain the slice, so
		// the one backing array serves the whole request and the next.
		batch = batch[:0]
		return nil
	}
	bad, err := ReadEvents(r.Body, func(e Event) error {
		batch = append(batch, e)
		if len(batch) == ingestBatch {
			return flush()
		}
		return nil
	})
	resp.BadLines = bad
	if err == nil {
		err = flush()
	}
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, ErrClosed) {
			status = http.StatusServiceUnavailable
		}
		writeJSON(w, status, struct {
			Error string `json:"error"`
			IngestResponse
		}{err.Error(), resp})
		return
	}
	writeJSON(w, http.StatusAccepted, resp)
}

// BatchRequest is the POST /ingest/batch payload: one site's readings,
// the wire form of the IngestBatch fast path. It skips the per-line JSON
// of /ingest, so a site-local edge relay can ship its interval in one
// decode.
type BatchRequest struct {
	// Site is the observing site; every reading in the batch belongs to it.
	Site int `json:"site"`
	// Readings are the site-local observations.
	Readings []dist.Reading `json:"readings"`
}

// maxBatchBytes bounds one /ingest/batch body (~250k readings). A larger
// batch is a malformed client, not a bigger buffer — the same stance the
// line-oriented /ingest takes per event — so the daemon never
// materializes an attacker-sized slice.
const maxBatchBytes = 8 << 20

// handleIngestBatch decodes one BatchRequest and runs it through the
// single-site IngestBatch fast path. The body must declare
// application/json: a producer posting another codec here is
// misconfigured, and silently JSON-decoding its payload would mask that,
// so it gets 415 and a counted stat instead.
func (s *Server) handleIngestBatch(w http.ResponseWriter, r *http.Request) {
	if !contentTypeIs(r, "application/json") {
		s.reject415(w, r, "application/json")
		return
	}
	var req BatchRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBatchBytes))
	if err := dec.Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "malformed batch: " + err.Error()})
		return
	}
	if err := s.IngestBatch(req.Site, req.Readings); err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, ErrClosed) {
			status = http.StatusServiceUnavailable
		}
		writeJSON(w, status, map[string]string{"error": err.Error()})
		return
	}
	writeJSON(w, http.StatusAccepted, IngestResponse{Queued: len(req.Readings)})
}

// handleDrain runs checkpoints through ?through=, clamped to the horizon
// (0 = the horizon itself); see Server.Drain.
func (s *Server) handleDrain(w http.ResponseWriter, r *http.Request) {
	through, err := epochParam(r, "through", 0)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	if err := s.Drain(through); err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, ErrClosed) {
			status = http.StatusServiceUnavailable
		}
		writeJSON(w, status, map[string]string{"error": err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, s.Stats())
}

// handleHealthz reports liveness; a latched pipeline error turns it 500 so
// orchestrators restart the daemon.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if !s.Healthy() {
		writeJSON(w, http.StatusInternalServerError, map[string]string{
			"status": "error", "err": s.Stats().Err,
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleSnapshot serves one site's containment/location estimates.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	site, err := strconv.Atoi(r.URL.Query().Get("site"))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "missing or non-integer ?site="})
		return
	}
	snap, err := s.Snapshot(site)
	if err != nil {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

// handleSnapshotNow is the durable-snapshot trigger: commit full state at
// the current checkpoint boundary and retire the WAL behind it, returning
// the committed manifest. Operators use it before a planned migration or
// backup (see OPERATIONS.md).
func (s *Server) handleSnapshotNow(w http.ResponseWriter, r *http.Request) {
	m, err := s.SnapshotNow()
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, ErrClosed) {
			status = http.StatusServiceUnavailable
		}
		writeJSON(w, status, map[string]string{"error": err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, m)
}

// AlertsPage is the cursor-mode GET /alerts reply: a batch of matching
// alerts plus the resume cursor naming the position right after them.
// Done is true only when the daemon shut down gracefully with every
// published alert delivered — after a crash the page simply ends and the
// client reconnects with its cursor.
type AlertsPage struct {
	Alerts []Alert `json:"alerts"`
	// Cursor is the opaque resume token (stream.EncodeAlertCursor) to pass
	// back as ?cursor= on the next poll.
	Cursor string `json:"cursor"`
	Done   bool   `json:"done,omitempty"`
}

// filterParams assembles the subscription filter from ?filter= (the
// canonical ParseSubscriptionFilter spec) plus the individual ?tag=,
// ?site=, ?pattern= and ?min_span= overrides. filtered reports whether
// any filtering parameter was present at all.
func filterParams(r *http.Request) (f Filter, filtered bool, err error) {
	q := r.URL.Query()
	f = MatchAll()
	if spec := q.Get("filter"); spec != "" {
		f, err = ParseSubscriptionFilter(spec)
		if err != nil {
			return Filter{}, false, err
		}
		filtered = true
	}
	if v := q.Get("tag"); v != "" {
		n, perr := parseFilterInt("tag", v)
		if perr != nil {
			return Filter{}, false, perr
		}
		f.Tag = model.TagID(n)
		filtered = true
	}
	if v := q.Get("site"); v != "" {
		n, perr := parseFilterInt("site", v)
		if perr != nil {
			return Filter{}, false, perr
		}
		f.Site = n
		filtered = true
	}
	if v := q.Get("pattern"); v != "" {
		if len(v) > stream.MaxAlertPatternKey {
			return Filter{}, false, fmt.Errorf("serve: ?pattern= longer than %d bytes", stream.MaxAlertPatternKey)
		}
		f.Pattern = v
		filtered = true
	}
	if v := q.Get("min_span"); v != "" {
		n, perr := parseFilterInt("min_span", v)
		if perr != nil {
			return Filter{}, false, perr
		}
		f.MinSpan = model.Epoch(n)
		filtered = true
	}
	return f, filtered, nil
}

// handleAlerts serves the alert feed in two modes. With no cursor, filter
// or limit parameters it is the legacy long-poll: a bare JSON array of
// every alert with seq >= ?since=. Any of those parameters selects cursor
// mode: the reply is an AlertsPage whose Cursor resumes exactly past the
// returned alerts — the durable-cursor consumer protocol (wait_ms default
// 0, max 30000; limit default 1000, max 10000).
func (s *Server) handleAlerts(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	waitMS, err := intParam(r, "wait_ms", 0)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	if waitMS > 30000 {
		waitMS = 30000
	}
	f, filtered, err := filterParams(r)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	cursorTok := q.Get("cursor")
	if cursorTok == "" && !filtered && !q.Has("limit") {
		since, err := intParam(r, "since", 0)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
			return
		}
		alerts := s.AlertsSince(since, time.Duration(waitMS)*time.Millisecond)
		if alerts == nil {
			alerts = []Alert{}
		}
		writeJSON(w, http.StatusOK, alerts)
		return
	}
	limit, err := intParam(r, "limit", defaultPollLimit)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	if limit <= 0 {
		limit = defaultPollLimit
	}
	if limit > maxPollLimit {
		limit = maxPollLimit
	}
	from := 0
	if cursorTok != "" {
		seq, err := stream.DecodeAlertCursor(cursorTok)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
			return
		}
		from = int(seq)
	} else if from, err = intParam(r, "since", 0); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	// Register a real subscriber rather than calling PollAlerts: the
	// client-disconnect hook can then fail a blocked poll immediately, so a
	// consumer that hangs up mid-wait never holds this handler (and its
	// ephemeral subscriber) for the full wait budget.
	sub := s.registry.register(f, from)
	defer sub.shutdown()
	stop := context.AfterFunc(r.Context(), sub.shutdown)
	defer stop()
	alerts, done := sub.poll(limit, time.Duration(waitMS)*time.Millisecond)
	next := sub.cursor()
	if r.Context().Err() != nil {
		return // client gone; nobody to write the page to
	}
	// done from the subscriber means "no further alert can arrive", which a
	// crash also produces; only a graceful finish is terminal for clients.
	if done && !s.alerts.isFinished() {
		done = false
	}
	if alerts == nil {
		alerts = []Alert{}
	}
	writeJSON(w, http.StatusOK, AlertsPage{
		Alerts: alerts,
		Cursor: stream.EncodeAlertCursor(int64(next)),
		Done:   done,
	})
}

// sseBatch bounds how many alerts one SSE write loop drains before
// flushing.
const sseBatch = 256

// handleAlertStream is the SSE feed: one event per matching alert, each
// carrying an `id:` line with the cursor that resumes right after it, so
// a reconnecting EventSource client that echoes Last-Event-ID misses
// nothing. The starting position is Last-Event-ID, else ?cursor=, else
// ?since=; ?filter= and friends narrow the stream. The subscription rides
// the delivery tier's bounded queue: a stalled client laps into cursor
// catch-up instead of back-pressuring the publisher.
func (s *Server) handleAlertStream(w http.ResponseWriter, r *http.Request) {
	f, _, err := filterParams(r)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	from := 0
	if lei := r.Header.Get("Last-Event-ID"); lei != "" {
		seq, err := stream.DecodeAlertCursor(lei)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
			return
		}
		from = int(seq)
	} else if tok := r.URL.Query().Get("cursor"); tok != "" {
		seq, err := stream.DecodeAlertCursor(tok)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
			return
		}
		from = int(seq)
	} else if from, err = intParam(r, "since", 0); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusNotImplemented, map[string]string{"error": "streaming unsupported"})
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	sub := s.registry.register(f, from)
	defer sub.shutdown()
	stop := context.AfterFunc(r.Context(), sub.shutdown)
	defer stop()
	for {
		batch, done := sub.poll(sseBatch, time.Second)
		if r.Context().Err() != nil {
			return
		}
		for _, a := range batch {
			payload, err := json.Marshal(a)
			if err != nil {
				return
			}
			if _, err := fmt.Fprintf(w, "id: %s\ndata: %s\n\n",
				stream.EncodeAlertCursor(int64(a.Seq+1)), payload); err != nil {
				return
			}
		}
		if len(batch) > 0 {
			fl.Flush()
		}
		if done {
			if s.alerts.isFinished() {
				// Terminal marker: graceful shutdown with everything
				// delivered. After a crash the stream just ends instead,
				// and the client reconnects with its Last-Event-ID.
				fmt.Fprint(w, "event: done\ndata: {}\n\n")
				fl.Flush()
			}
			return
		}
		select {
		case <-r.Context().Done():
			return
		default:
		}
	}
}

// writeJSON writes a JSON response with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// intParam parses an optional integer query parameter.
func intParam(r *http.Request, name string, def int) (int, error) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("serve: non-integer ?%s=%q", name, v)
	}
	return n, nil
}

// epochParam parses an optional epoch query parameter.
func epochParam(r *http.Request, name string, def model.Epoch) (model.Epoch, error) {
	n, err := intParam(r, name, int(def))
	return model.Epoch(n), err
}
