// The binary ingest wire: POST /ingest/bin carries a stream batch frame
// (see internal/stream's frame codec) whose fixed-width records
// Server.IngestFrame validates and buckets straight out of the request
// buffer — no JSON, no intermediate slice. The server-side decode is
// zero-copy (sections are views over the body) and the client-side encode
// reuses one frame buffer per Client, so both directions are
// allocation-free in steady state.
package serve

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"

	"rfidtrack/internal/dist"
	"rfidtrack/internal/stream"
)

// binBodies recycles request-body buffers for /ingest/bin so a sustained
// binary producer costs no per-request body allocation.
var binBodies = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// handleIngestBin reads one binary batch frame (Content-Type
// application/octet-stream, at most stream.MaxFrameBytes) and runs it
// through IngestFrame. The body must be exactly one frame: trailing bytes
// refuse the whole request, and nothing of it is ingested.
func (s *Server) handleIngestBin(w http.ResponseWriter, r *http.Request) {
	if !contentTypeIs(r, "application/octet-stream") {
		s.reject415(w, r, "application/octet-stream")
		return
	}
	buf := binBodies.Get().(*bytes.Buffer)
	defer binBodies.Put(buf)
	buf.Reset()
	if n := r.ContentLength; n > 0 && n <= stream.MaxFrameBytes {
		// One allocation at most instead of a doubling from 512 B up; the
		// MinRead of slack lets ReadFrom see EOF without growing again.
		buf.Grow(int(n) + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, stream.MaxFrameBytes)); err != nil {
		status := http.StatusBadRequest
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			status = http.StatusRequestEntityTooLarge
		}
		writeJSON(w, status, map[string]string{"error": "reading frame: " + err.Error()})
		return
	}
	queued, err := s.IngestFrame(buf.Bytes())
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, ErrClosed) {
			status = http.StatusServiceUnavailable
		}
		writeJSON(w, status, map[string]string{"error": err.Error()})
		return
	}
	writeJSON(w, http.StatusAccepted, IngestResponse{Queued: queued})
}

// contentTypeIs reports whether the request's media type matches want,
// ignoring parameters like charset. It allocates nothing on the match
// path.
func contentTypeIs(r *http.Request, want string) bool {
	ct := r.Header.Get("Content-Type")
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = ct[:i]
	}
	return strings.EqualFold(strings.TrimSpace(ct), want)
}

// reject415 refuses a request with the wrong Content-Type, counting it in
// Stats.UnsupportedMedia: a misconfigured producer shows up in /stats, not
// just in its own error log.
func (s *Server) reject415(w http.ResponseWriter, r *http.Request, want string) {
	s.invMu.Lock()
	s.unsupportedCT++
	s.lastInv = fmt.Sprintf("%s: unsupported Content-Type %q (want %s)",
		r.URL.Path, r.Header.Get("Content-Type"), want)
	s.invMu.Unlock()
	writeJSON(w, http.StatusUnsupportedMediaType,
		map[string]string{"error": "unsupported Content-Type; want " + want})
}

// frameEnc is one pooled binary-frame encoder: the builder plus the
// reader that wraps the finished frame as a request body. A Client hands
// each in-flight /ingest/bin request its own encoder from the pool.
type frameEnc struct {
	b  stream.FrameBuilder
	rd bytes.Reader
}

// getEnc takes an encoder from the Client's pool, reset and ready for a
// new frame.
func (c *Client) getEnc() *frameEnc {
	e, _ := c.binEncs.Get().(*frameEnc)
	if e == nil {
		e = &frameEnc{}
	}
	e.b.Reset()
	return e
}

// IngestBin posts one site's readings through the binary /ingest/bin fast
// path. The frame encoder comes from a per-Client pool, so concurrent
// producer goroutines each encode into their own recycled buffer — the
// encode is a single bulk append of the batch's bytes on little-endian
// machines (see dist.ReadingsToWire) and allocation-free in steady state.
func (c *Client) IngestBin(site int, readings []dist.Reading) (IngestResponse, error) {
	e := c.getEnc()
	defer c.binEncs.Put(e)
	e.b.BeginSection(site)
	e.b.AddRecords(dist.ReadingsToWire(readings))
	return c.postFrame(e)
}

// IngestBinAll posts several sites' readings (indexed by site, empty
// sites skipped) as ONE multi-section frame. The server buckets every
// section before publishing stream time, so a time-ordered batch
// regrouped by site cannot have a Δ checkpoint sealed between its sites —
// which is exactly what happens, without a watermark, when each site is
// posted as its own IngestBin request and the batch straddles an interval
// boundary.
func (c *Client) IngestBinAll(bySite [][]dist.Reading) (IngestResponse, error) {
	e := c.getEnc()
	defer c.binEncs.Put(e)
	for site, rs := range bySite {
		if len(rs) == 0 {
			continue
		}
		e.b.BeginSection(site)
		e.b.AddRecords(dist.ReadingsToWire(rs))
	}
	if e.b.Records() == 0 {
		return IngestResponse{}, nil
	}
	return c.postFrame(e)
}

// postFrame finishes the encoder's frame and POSTs it to /ingest/bin.
func (c *Client) postFrame(e *frameEnc) (IngestResponse, error) {
	e.rd.Reset(e.b.Finish())
	req, err := http.NewRequest(http.MethodPost, c.BaseURL+"/ingest/bin", &e.rd)
	if err != nil {
		return IngestResponse{}, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return IngestResponse{}, err
	}
	var ir IngestResponse
	err = checkStatus(resp, &ir)
	return ir, err
}
