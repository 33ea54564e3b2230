package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"time"

	"rfidtrack/internal/dist"
	"rfidtrack/internal/model"
	"rfidtrack/internal/rfinfer"
	"rfidtrack/internal/stream"
)

// snapMagic identifies a snapshot file.
var snapMagic = [8]byte{'R', 'F', 'I', 'D', 'S', 'N', 'A', 'P'}

// snapVersion is the snapshot format's version, the only one DecodeState
// reads: it refuses an older snapshot with the way out (upgradeHint).
const snapVersion = 4

// Alert is one continuous-query match, annotated with the site that raised
// it and its position in the server-global alert sequence: the delivery
// tier's alert (serve.Alert is this type) and the snapshot's. The snapshot
// does not encode Seq; restoring a log renumbers its alerts by position.
type Alert struct {
	// Seq is the alert's index in the server's append-only log; long-poll
	// clients resume from their last Seq + 1 (or, equivalently, the
	// cursor returned alongside each page).
	Seq int `json:"seq"`
	// Site is the site whose query engine fired.
	Site int `json:"site"`
	// Tag is the alerted object.
	Tag model.TagID `json:"tag"`
	// First and Last span the matched exposure episode.
	First model.Epoch `json:"first"`
	Last  model.Epoch `json:"last"`
	// Values are the episode's collected measurements (temperatures).
	Values []float64 `json:"values,omitempty"`
	// Pattern is the registry key of the query that fired ("q1", "q2"),
	// the per-pattern subscription dimension.
	Pattern string `json:"pattern,omitempty"`
}

// QueryPartition is one object's live pattern state at a site.
type QueryPartition struct {
	// Tag is the partition key; State the SEQ automaton state.
	Tag   model.TagID
	State stream.SeqState
}

// QueryState is one site's continuous-query state: the live pattern
// partitions plus the match history (so Matches/AlertedTags survive a
// restart).
type QueryState struct {
	// Parts holds the live partitions, sorted by tag.
	Parts []QueryPartition
	// Matches is the site's emitted match history, in emission order.
	Matches []stream.Match
}

// Migration is one inbound peer migration payload not yet consumed by a
// checkpoint: the departure identity it is keyed by plus the opaque encoded
// state. Snapshots carry the unconsumed inbox because committing a snapshot
// retires the WAL generation whose migration segment held these records.
type Migration struct {
	// D is the departure identity the payload is routed by.
	D dist.Departure
	// Payload is the encoded migration state (nil when the transfer
	// carried no bytes).
	Payload []byte
}

// ShardCounters is one ingest stripe's persisted counters, restored so
// /stats stays continuous across a restart.
type ShardCounters struct {
	// Received counts readings routed to the stripe; Late the readings
	// dropped because their checkpoint had sealed.
	Received, Late int
}

// State is a full snapshot of the online runtime at a Δ-checkpoint
// boundary: everything a fresh process needs to continue bit-identically.
// Buffered events (readings bucketed for future intervals, departures not
// yet observed) are included, which is what lets older WAL generations be
// retired the moment the snapshot commits.
type State struct {
	// Boundary is the checkpoint boundary: the epoch of the next
	// checkpoint the feed will run (dist.Feed.Next at snapshot time).
	Boundary model.Epoch
	// StreamTime is the highest accepted event epoch (-1 if none): the
	// final-drain horizon must survive recovery even when every event is
	// already consumed.
	StreamTime model.Epoch
	// Feed is the cluster-level runtime state.
	Feed dist.FeedState
	// Engines holds one inference-state snapshot per site.
	Engines []rfinfer.EngineState
	// Queries holds per-site query state (nil when no query is attached).
	Queries []QueryState
	// Alerts is the server's append-only alert log.
	Alerts []Alert
	// Buffered holds, per site, the readings accepted but not yet observed
	// by a checkpoint (the ingest stripes' future-interval buckets).
	Buffered [][]dist.Reading
	// PendingDeps are the accepted departures no checkpoint has observed.
	PendingDeps []dist.Departure
	// PendingMigs are the inbound peer migration payloads no checkpoint
	// has consumed (the peer inbox at snapshot time).
	PendingMigs []Migration
	// Shards and Invalid carry the serve layer's ingest counters across
	// the restart.
	Shards  []ShardCounters
	Invalid int
	// Misc counts events accounted outside any stripe (departures,
	// rejected unroutables).
	Misc int
}

// AppendState appends a snapshot to dst: magic, version, CRC32 of the
// payload, payload. The payload is model.Writer fields; each engine's
// state is rfinfer.AppendEngineState and each query partition's is
// stream.AppendState — the codecs migration uses — appended in place. The
// CRC is patched in once the payload is complete.
func AppendState(dst []byte, st *State) []byte {
	start := len(dst)
	dst = append(dst, snapMagic[:]...)
	dst = binary.LittleEndian.AppendUint32(dst, snapVersion)
	w := model.Writer(binary.LittleEndian.AppendUint32(dst, 0)) // CRC placeholder
	w.Varint(int64(st.Boundary))
	w.Varint(int64(st.StreamTime))

	// Feed section.
	fs := &st.Feed
	w.Varint(int64(fs.Next))
	w.Varint(int64(fs.ContErr.Wrong))
	w.Varint(int64(fs.ContErr.Total))
	w.Varint(int64(fs.LocErr.Wrong))
	w.Varint(int64(fs.LocErr.Total))
	w.Varint(int64(fs.Runs))
	w.Varint(int64(fs.QueryStateBytes))
	w.Uvarint(uint64(len(fs.Links)))
	for _, lc := range fs.Links {
		w.Uvarint(uint64(uint32(lc.From)))
		w.Uvarint(uint64(uint32(lc.To)))
		w.Varint(int64(lc.Bytes))
		w.Varint(int64(lc.Messages))
	}
	w.Uvarint(uint64(len(fs.Owner)))
	for _, site := range fs.Owner {
		w.Uvarint(uint64(uint32(site)))
	}
	if fs.Owned == nil {
		w.Uvarint(0)
	} else {
		w.Uvarint(1)
		w.Uvarint(uint64(len(fs.Owned)))
		for _, ids := range fs.Owned {
			w.Uvarint(uint64(len(ids)))
			for _, id := range ids {
				w.Uvarint(uint64(uint32(id)))
			}
		}
	}
	w.Uvarint(uint64(len(fs.Sites)))
	for _, ss := range fs.Sites {
		w.Varint(int64(ss.Epochs))
		w.Varint(int64(ss.MigrationsIn))
		w.Varint(int64(ss.MigrationsOut))
		w.Varint(int64(ss.BytesIn))
		w.Varint(int64(ss.BytesOut))
	}
	w.Varint(int64(fs.Stats.Observed))
	w.Varint(int64(fs.Stats.Late))
	w.Varint(int64(fs.Stats.LateDepartures))
	w.Varint(int64(fs.Stats.DupDepartures))
	w.Varint(int64(fs.Stats.Checkpoints))
	for _, p := range []dist.PhaseNS{fs.Stats.Phases, fs.Stats.LastPhases} {
		w.Varint(int64(p.Ingest))
		w.Varint(int64(p.Migrate))
		w.Varint(int64(p.Infer))
		w.Varint(int64(p.Tail))
	}

	// Engine section.
	w.Uvarint(uint64(len(st.Engines)))
	for i := range st.Engines {
		w = rfinfer.AppendEngineState(w, st.Engines[i])
	}

	// Query section.
	if st.Queries == nil {
		w.Uvarint(0)
	} else {
		w.Uvarint(1)
		w.Uvarint(uint64(len(st.Queries)))
		for i := range st.Queries {
			qs := &st.Queries[i]
			w.Uvarint(uint64(len(qs.Parts)))
			for j := range qs.Parts {
				w.Uvarint(uint64(uint32(qs.Parts[j].Tag)))
				w = stream.AppendState(w, &qs.Parts[j].State)
			}
			w.Uvarint(uint64(len(qs.Matches)))
			for _, m := range qs.Matches {
				w.Uvarint(uint64(uint32(m.Tag)))
				w.Varint(int64(m.First))
				w.Varint(int64(m.Last))
				w.Floats(m.Values)
			}
		}
	}

	// Alert log.
	w.Uvarint(uint64(len(st.Alerts)))
	for _, a := range st.Alerts {
		w.Uvarint(uint64(uint32(a.Site)))
		w.Uvarint(uint64(uint32(a.Tag)))
		w.Varint(int64(a.First))
		w.Varint(int64(a.Last))
		w.Floats(a.Values)
		w.Str(a.Pattern)
	}

	// Buffered events.
	w.Uvarint(uint64(len(st.Buffered)))
	for _, rs := range st.Buffered {
		w.Uvarint(uint64(len(rs)))
		for _, rd := range rs {
			w.Varint(int64(rd.T))
			w.Uvarint(uint64(uint32(rd.ID)))
			w.Uvarint(uint64(rd.Mask))
		}
	}
	w.Uvarint(uint64(len(st.PendingDeps)))
	for _, d := range st.PendingDeps {
		encodeDeparture(&w, d)
	}

	// Serve counters.
	w.Uvarint(uint64(len(st.Shards)))
	for _, sc := range st.Shards {
		w.Varint(int64(sc.Received))
		w.Varint(int64(sc.Late))
	}
	w.Varint(int64(st.Invalid))
	w.Varint(int64(st.Misc))

	// Peer inbox.
	w.Uvarint(uint64(len(st.PendingMigs)))
	for i := range st.PendingMigs {
		m := &st.PendingMigs[i]
		encodeDeparture(&w, m.D)
		w.Uvarint(uint64(len(m.Payload)))
		w = append(w, m.Payload...)
	}

	binary.LittleEndian.PutUint32(w[start+12:], crc32.ChecksumIEEE(w[start+16:]))
	return w
}

// encodeDeparture appends a departure's identity, as the pending-departure
// and pending-migration sections store it.
func encodeDeparture(w *model.Writer, d dist.Departure) {
	w.Uvarint(uint64(uint32(d.Object)))
	w.Uvarint(uint64(uint32(d.From)))
	w.Uvarint(uint64(uint32(d.To)))
	w.Varint(int64(d.At))
}

// decodeDeparture reverses encodeDeparture.
func decodeDeparture(r *model.Reader) dist.Departure {
	return dist.Departure{
		Object: model.TagID(r.Uvarint()),
		From:   int(int32(r.Uvarint())),
		To:     int(int32(r.Uvarint())),
		At:     model.Epoch(r.Varint()),
	}
}

// DecodeState reverses AppendState, verifying magic, version and CRC
// before touching the payload.
func DecodeState(b []byte) (*State, error) {
	if len(b) < 16 || !bytes.Equal(b[:8], snapMagic[:]) {
		return nil, fmt.Errorf("wal: not a snapshot file")
	}
	if version := binary.LittleEndian.Uint32(b[8:12]); version < snapVersion {
		return nil, fmt.Errorf("wal: version %d snapshot, and this release reads version %d only: %s", version, snapVersion, upgradeHint)
	} else if version > snapVersion {
		return nil, fmt.Errorf("wal: unsupported snapshot version %d, this release reads version %d only", version, snapVersion)
	}
	payload := b[16:]
	if crc := binary.LittleEndian.Uint32(b[12:16]); crc != crc32.ChecksumIEEE(payload) {
		return nil, fmt.Errorf("wal: snapshot CRC mismatch")
	}
	r := model.NewReader(payload)
	st := &State{
		Boundary:   model.Epoch(r.Varint()),
		StreamTime: model.Epoch(r.Varint()),
	}

	fs := &st.Feed
	fs.Next = model.Epoch(r.Varint())
	fs.ContErr.Wrong = int(r.Varint())
	fs.ContErr.Total = int(r.Varint())
	fs.LocErr.Wrong = int(r.Varint())
	fs.LocErr.Total = int(r.Varint())
	fs.Runs = int(r.Varint())
	fs.QueryStateBytes = int(r.Varint())
	if n := r.Count("link"); n > 0 {
		fs.Links = make([]dist.LinkCost, 0, model.DecodeCap(n))
		for range n {
			var lc dist.LinkCost
			lc.From = int(int32(r.Uvarint()))
			lc.To = int(int32(r.Uvarint()))
			lc.Bytes = int(r.Varint())
			lc.Messages = int(r.Varint())
			fs.Links = append(fs.Links, lc)
		}
	}
	n := r.Count("owner")
	fs.Owner = make([]int32, 0, model.DecodeCap(n))
	for range n {
		fs.Owner = append(fs.Owner, int32(r.Uvarint()))
	}
	if r.Uvarint() == 1 {
		n := r.Count("ownership view")
		fs.Owned = make([][]model.TagID, 0, model.DecodeCap(n))
		for range n {
			m := r.Count("owned tag")
			ids := make([]model.TagID, 0, model.DecodeCap(m))
			for range m {
				ids = append(ids, model.TagID(r.Uvarint()))
			}
			fs.Owned = append(fs.Owned, ids)
		}
	}
	n = r.Count("site stat")
	fs.Sites = make([]dist.SiteStats, 0, model.DecodeCap(n))
	for range n {
		fs.Sites = append(fs.Sites, dist.SiteStats{
			Epochs:        int(r.Varint()),
			MigrationsIn:  int(r.Varint()),
			MigrationsOut: int(r.Varint()),
			BytesIn:       int(r.Varint()),
			BytesOut:      int(r.Varint()),
		})
	}
	fs.Stats.Observed = int(r.Varint())
	fs.Stats.Late = int(r.Varint())
	fs.Stats.LateDepartures = int(r.Varint())
	fs.Stats.DupDepartures = int(r.Varint())
	fs.Stats.Checkpoints = int(r.Varint())
	for _, p := range []*dist.PhaseNS{&fs.Stats.Phases, &fs.Stats.LastPhases} {
		p.Ingest = time.Duration(r.Varint())
		p.Migrate = time.Duration(r.Varint())
		p.Infer = time.Duration(r.Varint())
		p.Tail = time.Duration(r.Varint())
	}

	n = r.Count("engine")
	st.Engines = make([]rfinfer.EngineState, 0, model.DecodeCap(n))
	for range n {
		es, err := rfinfer.DecodeEngineState(r)
		if err != nil {
			return nil, err
		}
		st.Engines = append(st.Engines, es)
	}

	if r.Uvarint() == 1 {
		n := r.Count("query state")
		st.Queries = make([]QueryState, 0, model.DecodeCap(n))
		for range n {
			np := r.Count("query partition")
			qs := QueryState{Parts: make([]QueryPartition, 0, model.DecodeCap(np))}
			for range np {
				tag := model.TagID(r.Uvarint())
				ss, err := stream.DecodeState(r)
				if err != nil {
					return nil, err
				}
				qs.Parts = append(qs.Parts, QueryPartition{Tag: tag, State: ss})
			}
			nm := r.Count("query match")
			qs.Matches = make([]stream.Match, 0, model.DecodeCap(nm))
			for range nm {
				qs.Matches = append(qs.Matches, stream.Match{
					Tag:    model.TagID(r.Uvarint()),
					First:  model.Epoch(r.Varint()),
					Last:   model.Epoch(r.Varint()),
					Values: r.Floats("match value"),
				})
			}
			st.Queries = append(st.Queries, qs)
		}
	}

	n = r.Count("alert")
	st.Alerts = make([]Alert, 0, model.DecodeCap(n))
	for range n {
		st.Alerts = append(st.Alerts, Alert{
			Site:    int(int32(r.Uvarint())),
			Tag:     model.TagID(r.Uvarint()),
			First:   model.Epoch(r.Varint()),
			Last:    model.Epoch(r.Varint()),
			Values:  r.Floats("alert value"),
			Pattern: r.Str("alert pattern byte"),
		})
	}

	n = r.Count("buffered site")
	st.Buffered = make([][]dist.Reading, 0, model.DecodeCap(n))
	for range n {
		m := r.Count("buffered reading")
		rs := make([]dist.Reading, 0, model.DecodeCap(m))
		for range m {
			rs = append(rs, dist.Reading{
				T:    model.Epoch(r.Varint()),
				ID:   model.TagID(r.Uvarint()),
				Mask: model.Mask(r.Uvarint()),
			})
		}
		st.Buffered = append(st.Buffered, rs)
	}
	n = r.Count("pending departure")
	st.PendingDeps = make([]dist.Departure, 0, model.DecodeCap(n))
	for range n {
		st.PendingDeps = append(st.PendingDeps, decodeDeparture(r))
	}

	n = r.Count("shard counter")
	st.Shards = make([]ShardCounters, 0, model.DecodeCap(n))
	for range n {
		st.Shards = append(st.Shards, ShardCounters{Received: int(r.Varint()), Late: int(r.Varint())})
	}
	st.Invalid = int(r.Varint())
	st.Misc = int(r.Varint())

	if n := r.Count("pending migration"); n > 0 {
		st.PendingMigs = make([]Migration, 0, model.DecodeCap(n))
		for range n {
			// The payload's byte count is clamped like any count, which
			// also holds it to stream.MaxMigrationPayload (the same 16 MiB).
			m := Migration{D: decodeDeparture(r)}
			if pl := r.Count("pending-migration payload byte"); pl > 0 {
				m.Payload = bytes.Clone(r.Bytes(pl))
			}
			st.PendingMigs = append(st.PendingMigs, m)
		}
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("wal: %d trailing snapshot bytes", r.Len())
	}
	return st, nil
}
