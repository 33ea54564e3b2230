// The primary side of WAL shipping: POST /repl/subscribe serves a
// follower one RFS1 delta batch per poll. The protocol is stateless on
// this side — the follower derives its position from its own disk
// (wal.Receiver.Pos) and sends it with every request, so a follower can
// drop batches, tear connections or restart and simply re-subscribe; the
// overlap-skipping receiver makes duplicate application a no-op. Every
// reply ends with a ReplStatus heartbeat carrying this daemon's fence
// epoch, stream time and WAL horizon — the liveness signal the standby's
// failure detector runs on.
package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"time"

	"rfidtrack/internal/stream"
	"rfidtrack/internal/wal"
)

// replPoll is the server-side wait granularity for a long-polling
// follower (?wait_ms= on /repl/subscribe).
const replPoll = 20 * time.Millisecond

// maxReplWait bounds the server-side wait so a follower cannot park
// request goroutines indefinitely.
const maxReplWait = 60_000

// ReplStats is the replication accounting in /stats (the "repl" block):
// shipping volume, follower recency, and the gossip/fencing state.
type ReplStats struct {
	// SelfEpoch is this daemon's fence epoch (0 until a promotion chain
	// touches its slot).
	SelfEpoch int64 `json:"self_epoch"`
	// ShippedBytes counts replication stream bytes served to followers.
	ShippedBytes int64 `json:"shipped_bytes"`
	// LastBatchBytes is the size of the most recent /repl/subscribe reply
	// — the follower's byte lag at that poll (0 = it was caught up).
	LastBatchBytes int64 `json:"last_batch_bytes"`
	// LastSubscribeMS is how long ago a follower last polled, in
	// milliseconds (-1 = never). A growing value with a configured standby
	// means the standby is down or partitioned.
	LastSubscribeMS int64 `json:"last_subscribe_ms"`
	// AdoptedStream counts stream-time advances adopted from gossip — a
	// nonzero value on a peer whose producers are quiet shows the liveness
	// layer doing its job.
	AdoptedStream int64 `json:"adopted_stream"`
	// Gossip is the current gossip table, indexed by peer slot (absent on
	// an un-clustered daemon).
	Gossip []GossipEntry `json:"gossip,omitempty"`
}

// replStats assembles the ReplStats snapshot.
func (s *Server) replStats() ReplStats {
	rs := ReplStats{
		SelfEpoch:       s.selfEpoch.Load(),
		ShippedBytes:    s.replShipped.Load(),
		LastBatchBytes:  s.replLastBatch.Load(),
		AdoptedStream:   s.adopted.Load(),
		LastSubscribeMS: -1,
	}
	if ns := s.replLastSub.Load(); ns > 0 {
		rs.LastSubscribeMS = (time.Now().UnixNano() - ns) / int64(time.Millisecond)
	}
	if s.gossipTab != nil {
		s.gossipMu.Lock()
		rs.Gossip = append([]GossipEntry(nil), s.gossipTab...)
		s.gossipMu.Unlock()
	}
	return rs
}

// handleReplSubscribe serves one replication delta: the body is the
// follower's JSON wal.ShipPos, the reply a stream of RFS1 frames ending
// in a ReplStatus heartbeat. ?wait_ms= long-polls until something ships
// or the wait expires (the heartbeat is sent either way); ?max_bytes=
// caps the batch (0 = the shipper's default budget).
func (s *Server) handleReplSubscribe(w http.ResponseWriter, r *http.Request) {
	if s.wal == nil {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "serve: durability disabled (no DataDir configured)"})
		return
	}
	var pos wal.ShipPos
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&pos); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "serve: ship position: " + err.Error()})
		return
	}
	waitMS, err := intParam(r, "wait_ms", 0)
	if err != nil || waitMS < 0 || waitMS > maxReplWait {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "serve: ?wait_ms= must be an integer in [0,60000]"})
		return
	}
	maxBytes, err := intParam(r, "max_bytes", 0)
	if err != nil || maxBytes < 0 {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "serve: ?max_bytes= must be a non-negative integer"})
		return
	}
	deadline := time.Now().Add(time.Duration(waitMS) * time.Millisecond)
	var frames []byte
	// walOn is false only during recovery replay; shipping waits that
	// window out and the reply degrades to a bare heartbeat.
	for s.walOn.Load() {
		frames, err = s.wal.ShipDelta(frames[:0], pos, maxBytes)
		if err != nil {
			code := http.StatusInternalServerError
			if errors.Is(err, wal.ErrShipPos) {
				code = http.StatusBadRequest
			}
			writeJSON(w, code, map[string]string{"error": "serve: ship: " + err.Error()})
			return
		}
		if len(frames) > 0 || !time.Now().Before(deadline) {
			break
		}
		stop := false
		select {
		case <-s.quit:
			stop = true
		case <-time.After(replPoll):
		}
		if stop {
			break
		}
	}
	frames = stream.AppendReplStatus(frames, s.selfEpoch.Load(), s.maxT.Load(), s.wal.Stats().AppendedBytes)
	s.replShipped.Add(int64(len(frames)))
	s.replLastBatch.Store(int64(len(frames)))
	s.replLastSub.Store(time.Now().UnixNano())
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(frames)
}
