// The write-ahead-log record codec: the durable wire format of the online
// runtime's accepted-event log (internal/wal). Each record is one accepted
// run of a site's readings, one departure, one inbound migration payload or
// one published alert, framed as
//
//	[4 bytes little-endian payload length]
//	[4 bytes IEEE CRC32 of the payload]
//	[payload: kind byte + the kind's fields]
//
// so a reader can walk a log byte-exactly, detect a torn tail (a frame cut
// short by a crash mid-write) and stop cleanly at the last valid record,
// and detect corruption (a frame whose bytes no longer match their CRC)
// without ever trusting a length or count from disk. The codec follows the
// same hardening stance as the migration codecs in this package and
// internal/rfinfer: implausible lengths are rejected before any allocation.
//
// Readings are logged a run at a time (WALRun): the payload is a fixed
// 8-byte header — kind, three zero bytes, little-endian site — followed by
// the run's 16-byte records exactly as an RFB1 frame section carries them
// (frame.go), so one reading codec serves the wire and the disk, an append
// is one header, one copy and one CRC however long the run, and a replay
// hands the records on without decoding them. Frame and run header are 16
// bytes together: in a segment holding only runs every record stays 8-byte
// aligned. The other kinds carry their fields in model.Writer's encoding,
// appended behind a reserved frame header whose length and CRC are patched
// in last: the uvarint of each 32-bit field, then a length-prefixed string
// and float list for an alert, or the raw payload bytes for a migration.
package stream

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"rfidtrack/internal/model"
)

// WAL record kinds.
const (
	// WALReading is one reader observation: Site, T, Tag, Mask. It was the
	// per-reading log format of releases before WALRun. Nothing writes it
	// to a log any more, and internal/wal refuses a segment holding one; it
	// is still decoded so that the refusal can name it, and Log.Replay
	// labels its per-reading expansion of runs with it.
	WALReading byte = 1
	// WALDepart is one accepted departure event: Object, From, To, At.
	WALDepart byte = 2
	// WALMigration is one inbound migration payload accepted from a peer:
	// the departure identity (Object, From, To, At) followed by the opaque
	// payload bytes. Logging the payload before acknowledging the peer's
	// POST is what makes at-least-once migration delivery survive a crash
	// of the receiving daemon (see internal/serve's peer layer).
	WALMigration byte = 3
	// WALAlert is one published continuous-query alert: Site, Tag, the
	// episode span (T = first epoch, At = last), the pattern key and the
	// collected measurement values. The delivery tier appends one per
	// published alert, which is what lets a consumer's cursor survive a
	// daemon kill -9: recovery restores the snapshot's alert-log prefix
	// and replays these records for the post-snapshot tail, so resumed
	// sequence numbers name the same alerts they did before the crash.
	WALAlert byte = 4
	// WALRun is one accepted run of a site's readings: Site and Run.
	WALRun byte = 5
)

// walFrameHeader is the fixed frame prefix: payload length + CRC32.
const walFrameHeader = 8

// walRunHeader is a run payload's fixed prefix: kind, three zero bytes,
// site.
const walRunHeader = 8

// WALRunHeaderLen is what precedes a run's record bytes on disk: the frame
// prefix and the run header.
const WALRunHeaderLen = walFrameHeader + walRunHeader

// MaxWALRunReadings bounds the readings of one run record (1 MiB of
// records); a writer cuts a longer run into several records.
const MaxWALRunReadings = 1 << 16

// maxWALRunPayload is the payload bound that follows from it.
const maxWALRunPayload = walRunHeader + MaxWALRunReadings*FrameRecordLen

// MaxWALPayload bounds a reading or departure record's payload. Real
// records are under 30 bytes; a length beyond this is a corrupt frame, not
// a bigger buffer.
const MaxWALPayload = 1 << 12

// MaxWALMigrationPayload bounds a migration record's payload: the framed
// departure fields plus a migration payload up to MaxMigrationPayload.
const MaxWALMigrationPayload = MaxMigrationPayload + 64

// MaxWALAlertPayload bounds an alert record's payload: the framed fields,
// a pattern key up to MaxAlertPatternKey and the episode's measurement
// values. Real alerts carry a handful of floats per Δ-interval of
// exposure; a length beyond this is a corrupt frame.
const MaxWALAlertPayload = 1 << 16

// MaxAlertPatternKey bounds an alert record's pattern-key string.
const MaxAlertPatternKey = 128

// WALRecord is one accepted event in the durable log. Kind selects which
// field group is meaningful.
type WALRecord struct {
	// Kind is one of the WAL record kinds above.
	Kind byte

	// Reading fields: the observing site, epoch, tag and reader mask.
	Site int
	T    model.Epoch
	Tag  model.TagID
	Mask model.Mask

	// Departure fields: the object and its (from, to, at) transfer.
	// WALMigration records use these for the departure identity too.
	Object   model.TagID
	From, To int
	At       model.Epoch

	// Payload is the opaque migration payload of a WALMigration record
	// (nil for the other kinds, and for an empty payload).
	Payload []byte

	// Alert fields of a WALAlert record: the pattern key that fired and
	// the episode's measurement values. WALAlert reuses Site, Tag, T (the
	// episode's first epoch) and At (its last).
	Pattern string
	Values  []float64

	// Run is a WALRun record's readings as wire records (FrameRecordLen
	// bytes each, Site says whose). Decoded, it is a view into the decode
	// buffer, valid only as long as that is.
	Run []byte
}

// WALRunHeader returns the bytes that precede raw — a whole number of wire
// records, at most MaxWALRunReadings of them — in site's run record: the
// record on disk is the header followed by raw itself, so a writer holding
// the records need not copy them to frame them.
func WALRunHeader(site int, raw []byte) (hdr [WALRunHeaderLen]byte) {
	if len(raw)%FrameRecordLen != 0 || len(raw) > MaxWALRunReadings*FrameRecordLen {
		panic("stream: WALRunHeader over ragged or oversized record bytes")
	}
	binary.LittleEndian.PutUint32(hdr[:], uint32(walRunHeader+len(raw)))
	hdr[walFrameHeader] = WALRun
	binary.LittleEndian.PutUint32(hdr[walFrameHeader+4:], uint32(site))
	crc := crc32.Update(crc32.ChecksumIEEE(hdr[walFrameHeader:]), crc32.IEEETable, raw)
	binary.LittleEndian.PutUint32(hdr[4:], crc)
	return hdr
}

// AppendWALRecord appends the framed encoding of rec to dst and returns
// the extended slice. It never fails: every WALRecord value encodes, except
// a WALRun whose Run WALRunHeader refuses (a programming error). Into a
// dst with room for the record it does not allocate.
func AppendWALRecord(dst []byte, rec WALRecord) []byte {
	if rec.Kind == WALRun {
		hdr := WALRunHeader(rec.Site, rec.Run)
		return append(append(dst, hdr[:]...), rec.Run...)
	}
	start := len(dst)
	w := model.Writer(append(dst, make([]byte, walFrameHeader)...)) // frame header placeholder
	w.Byte(rec.Kind)
	switch rec.Kind {
	case WALDepart, WALMigration:
		putFields(&w, int(rec.Object), rec.From, rec.To, int(rec.At))
		if rec.Kind == WALMigration {
			w = append(w, rec.Payload...)
		}
	case WALAlert:
		putFields(&w, rec.Site, int(rec.Tag), int(rec.T), int(rec.At))
		w.Str(rec.Pattern)
		w.Floats(rec.Values)
	default: // WALReading, and the encoder's fallback for unknown kinds
		putFields(&w, rec.Site, int(rec.T), int(rec.Tag))
		w.Uvarint(uint64(rec.Mask))
	}
	payload := w[start+walFrameHeader:]
	binary.LittleEndian.PutUint32(w[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(w[start+4:], crc32.ChecksumIEEE(payload))
	return w
}

// putFields appends a record's leading fields, each as the uvarint of its
// low 32 bits.
func putFields(w *model.Writer, fields ...int) {
	for _, f := range fields {
		w.Uvarint(uint64(uint32(f)))
	}
}

// WALFrameLen returns the framed size of the record b begins with — the
// length prefix plus the payload it announces — and false while b is
// shorter than the frame header. The length is not checked: a streaming
// reader sizes its buffer by it only after DecodeWALRecord has called the
// frame partial, which it does only for a plausible length.
func WALFrameLen(b []byte) (int, bool) {
	if len(b) < walFrameHeader {
		return 0, false
	}
	return walFrameHeader + int(binary.LittleEndian.Uint32(b)), true
}

// DecodeWALRecord decodes the first framed record in b, returning the
// record and the number of bytes consumed. A frame extending past the end
// of b yields ErrFramePartial (the torn-tail case); a complete frame that
// fails validation yields ErrFrameCorrupt. On error n is 0.
func DecodeWALRecord(b []byte) (rec WALRecord, n int, err error) {
	if len(b) < walFrameHeader {
		return rec, 0, ErrFramePartial
	}
	length := binary.LittleEndian.Uint32(b)
	if length == 0 || length > MaxWALMigrationPayload {
		return rec, 0, fmt.Errorf("%w: payload length %d", ErrFrameCorrupt, length)
	}
	if len(b) < walFrameHeader+int(length) {
		return rec, 0, ErrFramePartial
	}
	payload := b[walFrameHeader : walFrameHeader+int(length)]
	if crc := binary.LittleEndian.Uint32(b[4:]); crc != crc32.ChecksumIEEE(payload) {
		return rec, 0, fmt.Errorf("%w: CRC mismatch", ErrFrameCorrupt)
	}
	rec.Kind = payload[0]
	bound := uint32(MaxWALPayload)
	switch rec.Kind {
	case WALRun:
		if length < walRunHeader || length > maxWALRunPayload || (length-walRunHeader)%FrameRecordLen != 0 ||
			payload[1]|payload[2]|payload[3] != 0 {
			return WALRecord{}, 0, fmt.Errorf("%w: malformed reading run of payload length %d", ErrFrameCorrupt, length)
		}
		rec.Site = int(int32(binary.LittleEndian.Uint32(payload[4:])))
		if length > walRunHeader {
			rec.Run = payload[walRunHeader:]
		}
		return rec, walFrameHeader + int(length), nil
	case WALMigration:
		bound = MaxWALMigrationPayload
	case WALAlert:
		bound = MaxWALAlertPayload
	}
	if length > bound {
		return WALRecord{}, 0, fmt.Errorf("%w: payload length %d for kind %d", ErrFrameCorrupt, length, rec.Kind)
	}
	r := model.NewReader(payload[1:])
	var f [4]uint64
	for i := range f {
		f[i] = r.Uvarint()
	}
	switch rec.Kind {
	case WALReading:
		rec.Site, rec.T, rec.Tag, rec.Mask = int(int32(f[0])), model.Epoch(int32(f[1])), model.TagID(int32(f[2])), model.Mask(f[3])
	case WALDepart, WALMigration:
		rec.Object, rec.From, rec.To, rec.At = model.TagID(int32(f[0])), int(int32(f[1])), int(int32(f[2])), model.Epoch(int32(f[3]))
		// A migration's remaining bytes are its opaque payload, copied out
		// of the scan buffer: replay deposits these into long-lived state,
		// so a view into the log buffer would not be safe to retain.
		if rec.Kind == WALMigration && r.Len() > 0 {
			rec.Payload = bytes.Clone(r.Bytes(r.Len()))
		}
	case WALAlert:
		rec.Site, rec.Tag, rec.T, rec.At = int(int32(f[0])), model.TagID(int32(f[1])), model.Epoch(int32(f[2])), model.Epoch(int32(f[3]))
		n := r.Count("alert pattern byte")
		if n > MaxAlertPatternKey {
			return WALRecord{}, 0, fmt.Errorf("%w: alert pattern length %d", ErrFrameCorrupt, n)
		}
		// Copied out of the scan buffer like the migration payload: the
		// restored alert log outlives the replay.
		rec.Pattern = string(r.Bytes(n))
		if n = r.Count("alert value"); n*8 != r.Len() {
			return WALRecord{}, 0, fmt.Errorf("%w: %d alert values in %d bytes", ErrFrameCorrupt, n, r.Len())
		}
		if n > 0 {
			rec.Values = make([]float64, n)
			for i := range rec.Values {
				rec.Values[i] = r.F64()
			}
		}
	default:
		return WALRecord{}, 0, fmt.Errorf("%w: unknown record kind %d", ErrFrameCorrupt, rec.Kind)
	}
	if err := r.Err(); err != nil {
		return WALRecord{}, 0, fmt.Errorf("%w: record of kind %d: %v", ErrFrameCorrupt, rec.Kind, err)
	}
	if r.Len() != 0 {
		return WALRecord{}, 0, fmt.Errorf("%w: %d trailing payload bytes", ErrFrameCorrupt, r.Len())
	}
	return rec, walFrameHeader + int(length), nil
}

// ScanWAL walks a log buffer record by record, calling emit for each valid
// record, and returns the byte offset of the first invalid frame (the
// clean-truncation point) plus the error that stopped the scan (nil when
// the buffer ends exactly on a record boundary). A non-nil error is always
// ErrFramePartial or ErrFrameCorrupt (possibly wrapped); emit's own error
// aborts the scan and is returned verbatim with the current offset.
func ScanWAL(b []byte, emit func(WALRecord) error) (valid int, err error) {
	off := 0
	for off < len(b) {
		rec, n, err := DecodeWALRecord(b[off:])
		if err != nil {
			return off, err
		}
		if err := emit(rec); err != nil {
			return off, err
		}
		off += n
	}
	return off, nil
}
