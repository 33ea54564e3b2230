package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"time"

	"rfidtrack/internal/dist"
	"rfidtrack/internal/model"
	"rfidtrack/internal/rfinfer"
	"rfidtrack/internal/stream"
)

// snapMagic and snapVersion identify a snapshot file.
var snapMagic = [8]byte{'R', 'F', 'I', 'D', 'S', 'N', 'A', 'P'}

// snapVersion 2 appended the PendingMigs section; version 3 added the
// per-alert pattern key; version 4 dropped two per-site counters
// (migration inbox peak and stall time) that only a retired replay
// schedule ever set. Older snapshots still decode: version 1 with an empty
// peer inbox, versions 1–2 with empty pattern keys, versions 1–3 with the
// two counters read and discarded.
const snapVersion = 4

// Alert is one persisted continuous-query alert. The serve layer's Seq is
// implicit: it is the alert's index in the restored log.
type Alert struct {
	// Site is the site whose query engine fired; Tag the alerted object.
	Site int
	Tag  model.TagID
	// First and Last span the matched exposure episode; Values are its
	// collected measurements.
	First, Last model.Epoch
	Values      []float64
	// Pattern is the registry key of the query pattern that fired (the
	// delivery tier's per-pattern subscription dimension).
	Pattern string
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

// stateWriter is a sticky varint writer over a bytes.Buffer.
type stateWriter struct {
	buf bytes.Buffer
	tmp [binary.MaxVarintLen64]byte
}

func (w *stateWriter) uvarint(v uint64) {
	n := binary.PutUvarint(w.tmp[:], v)
	w.buf.Write(w.tmp[:n])
}
func (w *stateWriter) varint(v int64) {
	n := binary.PutVarint(w.tmp[:], v)
	w.buf.Write(w.tmp[:n])
}
func (w *stateWriter) f64(v float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	w.buf.Write(b[:])
}
func (w *stateWriter) floats(vs []float64) {
	w.uvarint(uint64(len(vs)))
	for _, v := range vs {
		w.f64(v)
	}
}
func (w *stateWriter) str(s string) {
	w.uvarint(uint64(len(s)))
	w.buf.WriteString(s)
}

// stateReader is the sticky decoding counterpart.
type stateReader struct {
	r   *bytes.Reader
	err error
}

func (r *stateReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(r.r)
	if err != nil {
		r.err = err
	}
	return v
}
func (r *stateReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, err := binary.ReadVarint(r.r)
	if err != nil {
		r.err = err
	}
	return v
}
func (r *stateReader) f64() float64 {
	if r.err != nil {
		return 0
	}
	var b [8]byte
	if _, err := io.ReadFull(r.r, b[:]); err != nil {
		r.err = err
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
}
func (r *stateReader) count(what string) (int, bool) {
	n := r.uvarint()
	if r.err != nil {
		return 0, false
	}
	if n > model.MaxDecodeElems {
		r.err = fmt.Errorf("wal: implausible %s count %d", what, n)
		return 0, false
	}
	return int(n), true
}
func (r *stateReader) floats(what string) []float64 {
	n, ok := r.count(what)
	if !ok {
		return nil
	}
	out := make([]float64, 0, model.DecodeCap(uint64(n)))
	for i := 0; i < n && r.err == nil; i++ {
		out = append(out, r.f64())
	}
	return out
}
func (r *stateReader) str(what string) string {
	n, ok := r.count(what)
	if !ok {
		return ""
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r.r, b); err != nil {
		r.err = err
		return ""
	}
	return string(b)
}

// EncodeState serializes a snapshot: magic, version, CRC32 of the payload,
// payload. Engine state uses rfinfer's own codec; query pattern state uses
// stream.EncodeState — the same hardened codecs migration uses.
func EncodeState(st *State) ([]byte, error) {
	var w stateWriter
	w.varint(int64(st.Boundary))
	w.varint(int64(st.StreamTime))

	// Feed section.
	fs := &st.Feed
	w.varint(int64(fs.Next))
	w.varint(int64(fs.ContErr.Wrong))
	w.varint(int64(fs.ContErr.Total))
	w.varint(int64(fs.LocErr.Wrong))
	w.varint(int64(fs.LocErr.Total))
	w.varint(int64(fs.Runs))
	w.varint(int64(fs.QueryStateBytes))
	w.uvarint(uint64(len(fs.Links)))
	for _, lc := range fs.Links {
		w.uvarint(uint64(uint32(lc.From)))
		w.uvarint(uint64(uint32(lc.To)))
		w.varint(int64(lc.Bytes))
		w.varint(int64(lc.Messages))
	}
	w.uvarint(uint64(len(fs.Owner)))
	for _, site := range fs.Owner {
		w.uvarint(uint64(uint32(site)))
	}
	if fs.Owned == nil {
		w.uvarint(0)
	} else {
		w.uvarint(1)
		w.uvarint(uint64(len(fs.Owned)))
		for _, ids := range fs.Owned {
			w.uvarint(uint64(len(ids)))
			for _, id := range ids {
				w.uvarint(uint64(uint32(id)))
			}
		}
	}
	w.uvarint(uint64(len(fs.Sites)))
	for _, ss := range fs.Sites {
		w.varint(int64(ss.Epochs))
		w.varint(int64(ss.MigrationsIn))
		w.varint(int64(ss.MigrationsOut))
		w.varint(int64(ss.BytesIn))
		w.varint(int64(ss.BytesOut))
	}
	w.varint(int64(fs.Stats.Observed))
	w.varint(int64(fs.Stats.Late))
	w.varint(int64(fs.Stats.LateDepartures))
	w.varint(int64(fs.Stats.DupDepartures))
	w.varint(int64(fs.Stats.Checkpoints))
	for _, p := range []dist.PhaseNS{fs.Stats.Phases, fs.Stats.LastPhases} {
		w.varint(int64(p.Ingest))
		w.varint(int64(p.Migrate))
		w.varint(int64(p.Infer))
		w.varint(int64(p.Tail))
	}

	// Engine section.
	w.uvarint(uint64(len(st.Engines)))
	for i := range st.Engines {
		if err := rfinfer.EncodeEngineState(&w.buf, st.Engines[i]); err != nil {
			return nil, err
		}
	}

	// Query section.
	if st.Queries == nil {
		w.uvarint(0)
	} else {
		w.uvarint(1)
		w.uvarint(uint64(len(st.Queries)))
		for i := range st.Queries {
			qs := &st.Queries[i]
			w.uvarint(uint64(len(qs.Parts)))
			for j := range qs.Parts {
				w.uvarint(uint64(uint32(qs.Parts[j].Tag)))
				if err := stream.EncodeState(&w.buf, &qs.Parts[j].State); err != nil {
					return nil, err
				}
			}
			w.uvarint(uint64(len(qs.Matches)))
			for _, m := range qs.Matches {
				w.uvarint(uint64(uint32(m.Tag)))
				w.varint(int64(m.First))
				w.varint(int64(m.Last))
				w.floats(m.Values)
			}
		}
	}

	// Alert log.
	w.uvarint(uint64(len(st.Alerts)))
	for _, a := range st.Alerts {
		w.uvarint(uint64(uint32(a.Site)))
		w.uvarint(uint64(uint32(a.Tag)))
		w.varint(int64(a.First))
		w.varint(int64(a.Last))
		w.floats(a.Values)
		w.str(a.Pattern)
	}

	// Buffered events.
	w.uvarint(uint64(len(st.Buffered)))
	for _, rs := range st.Buffered {
		w.uvarint(uint64(len(rs)))
		for _, rd := range rs {
			w.varint(int64(rd.T))
			w.uvarint(uint64(uint32(rd.ID)))
			w.uvarint(uint64(rd.Mask))
		}
	}
	w.uvarint(uint64(len(st.PendingDeps)))
	for _, d := range st.PendingDeps {
		w.uvarint(uint64(uint32(d.Object)))
		w.uvarint(uint64(uint32(d.From)))
		w.uvarint(uint64(uint32(d.To)))
		w.varint(int64(d.At))
	}

	// Serve counters.
	w.uvarint(uint64(len(st.Shards)))
	for _, sc := range st.Shards {
		w.varint(int64(sc.Received))
		w.varint(int64(sc.Late))
	}
	w.varint(int64(st.Invalid))
	w.varint(int64(st.Misc))

	// Peer inbox (added in snapVersion 2).
	w.uvarint(uint64(len(st.PendingMigs)))
	for i := range st.PendingMigs {
		m := &st.PendingMigs[i]
		w.uvarint(uint64(uint32(m.D.Object)))
		w.uvarint(uint64(uint32(m.D.From)))
		w.uvarint(uint64(uint32(m.D.To)))
		w.varint(int64(m.D.At))
		w.uvarint(uint64(len(m.Payload)))
		w.buf.Write(m.Payload)
	}

	payload := w.buf.Bytes()
	out := make([]byte, 0, len(payload)+16)
	out = append(out, snapMagic[:]...)
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[:4], snapVersion)
	binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(payload))
	out = append(out, hdr[:]...)
	out = append(out, payload...)
	return out, nil
}

// DecodeState reverses EncodeState, verifying magic, version and CRC
// before touching the payload.
func DecodeState(b []byte) (*State, error) {
	if len(b) < 16 || !bytes.Equal(b[:8], snapMagic[:]) {
		return nil, fmt.Errorf("wal: not a snapshot file")
	}
	version := binary.LittleEndian.Uint32(b[8:12])
	if version < 1 || version > snapVersion {
		return nil, fmt.Errorf("wal: unsupported snapshot version %d", version)
	}
	payload := b[16:]
	if crc := binary.LittleEndian.Uint32(b[12:16]); crc != crc32.ChecksumIEEE(payload) {
		return nil, fmt.Errorf("wal: snapshot CRC mismatch")
	}
	r := &stateReader{r: bytes.NewReader(payload)}
	st := &State{}
	st.Boundary = model.Epoch(r.varint())
	st.StreamTime = model.Epoch(r.varint())

	fs := &st.Feed
	fs.Next = model.Epoch(r.varint())
	fs.ContErr.Wrong = int(r.varint())
	fs.ContErr.Total = int(r.varint())
	fs.LocErr.Wrong = int(r.varint())
	fs.LocErr.Total = int(r.varint())
	fs.Runs = int(r.varint())
	fs.QueryStateBytes = int(r.varint())
	if n, ok := r.count("link"); ok && n > 0 {
		fs.Links = make([]dist.LinkCost, 0, model.DecodeCap(uint64(n)))
		for i := 0; i < n && r.err == nil; i++ {
			var lc dist.LinkCost
			lc.From = int(int32(r.uvarint()))
			lc.To = int(int32(r.uvarint()))
			lc.Bytes = int(r.varint())
			lc.Messages = int(r.varint())
			fs.Links = append(fs.Links, lc)
		}
	}
	if n, ok := r.count("owner"); ok {
		fs.Owner = make([]int32, 0, model.DecodeCap(uint64(n)))
		for i := 0; i < n && r.err == nil; i++ {
			fs.Owner = append(fs.Owner, int32(r.uvarint()))
		}
	}
	if r.uvarint() == 1 {
		n, ok := r.count("ownership view")
		if ok {
			fs.Owned = make([][]model.TagID, 0, model.DecodeCap(uint64(n)))
			for i := 0; i < n && r.err == nil; i++ {
				m, ok := r.count("owned tag")
				if !ok {
					break
				}
				ids := make([]model.TagID, 0, model.DecodeCap(uint64(m)))
				for j := 0; j < m && r.err == nil; j++ {
					ids = append(ids, model.TagID(r.uvarint()))
				}
				fs.Owned = append(fs.Owned, ids)
			}
		}
	}
	if n, ok := r.count("site stat"); ok {
		fs.Sites = make([]dist.SiteStats, 0, model.DecodeCap(uint64(n)))
		for i := 0; i < n && r.err == nil; i++ {
			var ss dist.SiteStats
			ss.Epochs = int(r.varint())
			ss.MigrationsIn = int(r.varint())
			ss.MigrationsOut = int(r.varint())
			ss.BytesIn = int(r.varint())
			ss.BytesOut = int(r.varint())
			if version < 4 {
				r.varint() // inbox peak
				r.varint() // stall
			}
			fs.Sites = append(fs.Sites, ss)
		}
	}
	fs.Stats.Observed = int(r.varint())
	fs.Stats.Late = int(r.varint())
	fs.Stats.LateDepartures = int(r.varint())
	fs.Stats.DupDepartures = int(r.varint())
	fs.Stats.Checkpoints = int(r.varint())
	for _, p := range []*dist.PhaseNS{&fs.Stats.Phases, &fs.Stats.LastPhases} {
		p.Ingest = timeDuration(r.varint())
		p.Migrate = timeDuration(r.varint())
		p.Infer = timeDuration(r.varint())
		p.Tail = timeDuration(r.varint())
	}
	if r.err != nil {
		return nil, r.err
	}

	if n, ok := r.count("engine"); ok {
		st.Engines = make([]rfinfer.EngineState, 0, model.DecodeCap(uint64(n)))
		for i := 0; i < n; i++ {
			es, err := rfinfer.DecodeEngineState(r.r)
			if err != nil {
				return nil, err
			}
			st.Engines = append(st.Engines, es)
		}
	}

	if r.uvarint() == 1 {
		n, ok := r.count("query state")
		if !ok {
			return nil, r.err
		}
		st.Queries = make([]QueryState, 0, model.DecodeCap(uint64(n)))
		for i := 0; i < n && r.err == nil; i++ {
			var qs QueryState
			np, ok := r.count("query partition")
			if !ok {
				break
			}
			qs.Parts = make([]QueryPartition, 0, model.DecodeCap(uint64(np)))
			for j := 0; j < np; j++ {
				tag := model.TagID(r.uvarint())
				if r.err != nil {
					return nil, r.err
				}
				ss, err := stream.DecodeState(r.r)
				if err != nil {
					return nil, err
				}
				qs.Parts = append(qs.Parts, QueryPartition{Tag: tag, State: ss})
			}
			nm, ok := r.count("query match")
			if !ok {
				break
			}
			qs.Matches = make([]stream.Match, 0, model.DecodeCap(uint64(nm)))
			for j := 0; j < nm && r.err == nil; j++ {
				var m stream.Match
				m.Tag = model.TagID(r.uvarint())
				m.First = model.Epoch(r.varint())
				m.Last = model.Epoch(r.varint())
				m.Values = r.floats("match value")
				qs.Matches = append(qs.Matches, m)
			}
			st.Queries = append(st.Queries, qs)
		}
	}

	if n, ok := r.count("alert"); ok {
		st.Alerts = make([]Alert, 0, model.DecodeCap(uint64(n)))
		for i := 0; i < n && r.err == nil; i++ {
			var a Alert
			a.Site = int(int32(r.uvarint()))
			a.Tag = model.TagID(r.uvarint())
			a.First = model.Epoch(r.varint())
			a.Last = model.Epoch(r.varint())
			a.Values = r.floats("alert value")
			if version >= 3 {
				a.Pattern = r.str("alert pattern")
			}
			st.Alerts = append(st.Alerts, a)
		}
	}

	if n, ok := r.count("buffered site"); ok {
		st.Buffered = make([][]dist.Reading, 0, model.DecodeCap(uint64(n)))
		for i := 0; i < n && r.err == nil; i++ {
			m, ok := r.count("buffered reading")
			if !ok {
				break
			}
			rs := make([]dist.Reading, 0, model.DecodeCap(uint64(m)))
			for j := 0; j < m && r.err == nil; j++ {
				var rd dist.Reading
				rd.T = model.Epoch(r.varint())
				rd.ID = model.TagID(r.uvarint())
				rd.Mask = model.Mask(r.uvarint())
				rs = append(rs, rd)
			}
			st.Buffered = append(st.Buffered, rs)
		}
	}
	if n, ok := r.count("pending departure"); ok {
		st.PendingDeps = make([]dist.Departure, 0, model.DecodeCap(uint64(n)))
		for i := 0; i < n && r.err == nil; i++ {
			var d dist.Departure
			d.Object = model.TagID(r.uvarint())
			d.From = int(int32(r.uvarint()))
			d.To = int(int32(r.uvarint()))
			d.At = model.Epoch(r.varint())
			st.PendingDeps = append(st.PendingDeps, d)
		}
	}

	if n, ok := r.count("shard counter"); ok {
		st.Shards = make([]ShardCounters, 0, model.DecodeCap(uint64(n)))
		for i := 0; i < n && r.err == nil; i++ {
			var sc ShardCounters
			sc.Received = int(r.varint())
			sc.Late = int(r.varint())
			st.Shards = append(st.Shards, sc)
		}
	}
	st.Invalid = int(r.varint())
	st.Misc = int(r.varint())

	if version >= 2 {
		if n, ok := r.count("pending migration"); ok && n > 0 {
			st.PendingMigs = make([]Migration, 0, model.DecodeCap(uint64(n)))
			for i := 0; i < n && r.err == nil; i++ {
				var m Migration
				m.D.Object = model.TagID(r.uvarint())
				m.D.From = int(int32(r.uvarint()))
				m.D.To = int(int32(r.uvarint()))
				m.D.At = model.Epoch(r.varint())
				pl := r.uvarint()
				if r.err != nil {
					break
				}
				if pl > stream.MaxMigrationPayload {
					return nil, fmt.Errorf("wal: implausible pending-migration payload length %d", pl)
				}
				if pl > 0 {
					m.Payload = make([]byte, pl)
					if _, err := io.ReadFull(r.r, m.Payload); err != nil {
						return nil, err
					}
				}
				st.PendingMigs = append(st.PendingMigs, m)
			}
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.r.Len() != 0 {
		return nil, fmt.Errorf("wal: %d trailing snapshot bytes", r.r.Len())
	}
	return st, nil
}

// timeDuration converts a persisted int64 back to a duration.
func timeDuration(v int64) time.Duration { return time.Duration(v) }
