// The binary batch frame codec: the high-throughput ingest wire format of
// the online runtime (POST /ingest/bin). One RFB1 frame carries one or
// more per-site sections of fixed-width reading records inside the shared
// frame envelope (envelope.go):
//
//	header (16 bytes):
//	  [4 bytes magic "RFB1"]
//	  [4 bytes little-endian frame length, header and trailer included]
//	  [4 bytes little-endian section count]
//	  [4 bytes little-endian total record count]
//	sections, each:
//	  [4 bytes little-endian site]
//	  [4 bytes little-endian record count]
//	  [count x 16-byte records: epoch u32 | tag u32 | mask u64, LE]
//	trailer:
//	  [4 bytes CRC32-Castagnoli of everything before it]
//
// Fixed-width records make the producer encode a pair of stores per
// reading and let the consumer decode without copying: a BatchSection is a
// view over the frame's bytes, so readings go straight from the network
// buffer into the ingest shards. A frame travels alone, one per request
// body, so the decoder takes exactly one frame: no count from the wire is
// trusted before it is checked against the bytes actually present, and
// nothing is emitted before the whole buffer has been vouched for.
package stream

import (
	"encoding/binary"
	"fmt"

	"rfidtrack/internal/model"
)

// FrameMagic identifies (and versions) a binary batch frame: "RFB1" as a
// little-endian uint32. An incompatible future layout gets a new magic.
const FrameMagic = uint32('R') | uint32('F')<<8 | uint32('B')<<16 | uint32('1')<<24

const (
	// frameHeaderLen is the fixed frame prefix: magic, frame length,
	// section count, record count.
	frameHeaderLen = 16
	// frameSectionLen is one section header: site + record count.
	frameSectionLen = 8
	// FrameRecordLen is one fixed-width reading record.
	FrameRecordLen = 16
)

// MaxFrameBytes bounds one frame's total length (~500k readings), and with
// it the body of one POST /ingest/bin: a larger frame is a malformed
// producer, not a bigger buffer.
const MaxFrameBytes = 8 << 20

// BatchSection is one site's records inside a decoded frame: a zero-copy
// view over the frame's bytes. It is only valid while the frame buffer is.
type BatchSection struct {
	// Site is the section's site index as sent on the wire.
	Site int
	recs []byte // Count x FrameRecordLen record bytes
	n    int
}

// Len returns the number of records in the section.
func (s BatchSection) Len() int { return s.n }

// At decodes record i. It performs no validation beyond the fixed layout:
// epochs and tags are returned as signed values exactly as sent, and the
// ingest layer's validation decides what is acceptable.
func (s BatchSection) At(i int) (t model.Epoch, tag model.TagID, mask model.Mask) {
	rec := s.recs[i*FrameRecordLen : i*FrameRecordLen+FrameRecordLen]
	t = model.Epoch(int32(binary.LittleEndian.Uint32(rec)))
	tag = model.TagID(int32(binary.LittleEndian.Uint32(rec[4:])))
	mask = model.Mask(binary.LittleEndian.Uint64(rec[8:]))
	return
}

// Raw returns the section's record bytes — Len() x FrameRecordLen, laid
// out exactly as documented in the package comment. Like the section
// itself it aliases the frame buffer and is only valid while that is. It
// exists for zero-copy consumers (the ingest fast path) that reinterpret
// whole records in place instead of decoding them one field at a time.
func (s BatchSection) Raw() []byte { return s.recs }

// FrameBuilder incrementally encodes one batch frame. The zero value is
// ready to use; Reset reuses the backing buffer, so a producer in steady
// state allocates nothing per frame:
//
//	b.Reset()
//	b.BeginSection(site)
//	for ... { b.Add(t, tag, mask) }
//	frame := b.Finish()
type FrameBuilder struct {
	buf      []byte
	sections int
	records  int
	secOff   int // offset of the open section's header, -1 when none
	finished bool
}

// Reset discards the frame under construction, keeping the buffer.
func (b *FrameBuilder) Reset() {
	b.buf = b.buf[:0]
	b.sections = 0
	b.records = 0
	b.secOff = -1
	b.finished = false
}

// start lazily writes the frame header placeholder.
func (b *FrameBuilder) start() {
	if len(b.buf) != 0 {
		return
	}
	// The section and record counts are placeholders until Finish.
	b.buf = append(beginFrame(b.buf, FrameMagic), 0, 0, 0, 0, 0, 0, 0, 0)
	b.secOff = -1
}

// BeginSection opens a new per-site section. Sections may repeat a site;
// the consumer processes them in order.
func (b *FrameBuilder) BeginSection(site int) {
	b.start()
	var sec [frameSectionLen]byte
	binary.LittleEndian.PutUint32(sec[:], uint32(site))
	b.secOff = len(b.buf)
	b.buf = append(b.buf, sec[:]...)
	b.sections++
}

// Add appends one reading record to the open section. Calling Add without
// an open section panics: it is a producer programming error, not a wire
// condition.
func (b *FrameBuilder) Add(t model.Epoch, tag model.TagID, mask model.Mask) {
	if b.secOff < 0 {
		panic("stream: FrameBuilder.Add without BeginSection")
	}
	var rec [FrameRecordLen]byte
	binary.LittleEndian.PutUint32(rec[:], uint32(t))
	binary.LittleEndian.PutUint32(rec[4:], uint32(tag))
	binary.LittleEndian.PutUint64(rec[8:], uint64(mask))
	b.buf = append(b.buf, rec[:]...)
	binary.LittleEndian.PutUint32(b.buf[b.secOff+4:],
		binary.LittleEndian.Uint32(b.buf[b.secOff+4:])+1)
	b.records++
}

// AddRecords appends pre-encoded records — a multiple of FrameRecordLen
// bytes in the wire layout — to the open section in one append. It is the
// bulk twin of Add for producers that already hold records in wire shape
// (see the ingest client's little-endian fast path). A ragged length or a
// missing BeginSection panics like Add does: both are producer programming
// errors.
func (b *FrameBuilder) AddRecords(raw []byte) {
	if b.secOff < 0 {
		panic("stream: FrameBuilder.AddRecords without BeginSection")
	}
	if len(raw)%FrameRecordLen != 0 {
		panic("stream: FrameBuilder.AddRecords with ragged record bytes")
	}
	n := len(raw) / FrameRecordLen
	b.buf = append(b.buf, raw...)
	binary.LittleEndian.PutUint32(b.buf[b.secOff+4:],
		binary.LittleEndian.Uint32(b.buf[b.secOff+4:])+uint32(n))
	b.records += n
}

// Len returns the encoded size the frame has reached so far (header and
// trailer included), letting a producer cut a frame before it exceeds
// MaxFrameBytes.
func (b *FrameBuilder) Len() int {
	if len(b.buf) == 0 {
		return frameHeaderLen + frameTrailerLen
	}
	if b.finished {
		return len(b.buf)
	}
	return len(b.buf) + frameTrailerLen
}

// Records returns the number of records added so far.
func (b *FrameBuilder) Records() int { return b.records }

// Finish patches the header, appends the CRC trailer and returns the
// complete frame. The returned slice aliases the builder's buffer: it is
// valid until the next Reset.
func (b *FrameBuilder) Finish() []byte {
	b.start()
	if b.finished {
		panic("stream: FrameBuilder.Finish called twice without Reset")
	}
	b.finished = true
	binary.LittleEndian.PutUint32(b.buf[8:], uint32(b.sections))
	binary.LittleEndian.PutUint32(b.buf[12:], uint32(b.records))
	b.buf = sealFrame(b.buf, 0)
	return b.buf
}

// DecodeBatchFrame decodes b, which must hold exactly one frame, calling
// emit for each section in wire order, and returns the frame's length —
// len(b). Sections are zero-copy views into b: they are valid only during
// emit.
//
// A buffer shorter than the frame's declared length yields ErrFramePartial;
// a frame that fails validation, or is followed by further bytes, yields
// ErrFrameCorrupt. Every count is validated against the bytes present
// before any section is emitted, and emit's own error aborts the decode
// and is returned verbatim — by then the CRC has already vouched for the
// whole frame.
func DecodeBatchFrame(b []byte, emit func(BatchSection) error) (n int, err error) {
	body, n, err := openFrame(b, FrameMagic, frameHeaderLen, MaxFrameBytes)
	if err != nil {
		return 0, err
	}
	if n != len(b) {
		return 0, fmt.Errorf("%w: %d bytes after the frame", ErrFrameCorrupt, len(b)-n)
	}
	sections := int(binary.LittleEndian.Uint32(b[8:]))
	records := int(binary.LittleEndian.Uint32(b[12:]))

	// Validate that the declared sections tile the body exactly before
	// emitting anything: a CRC-valid frame from a buggy producer must be
	// rejected whole, not half-applied.
	if sections > len(body)/frameSectionLen || records > model.MaxDecodeElems {
		return 0, fmt.Errorf("%w: %d sections / %d records exceed body", ErrFrameCorrupt, sections, records)
	}
	rest := body
	total := 0
	for i := 0; i < sections; i++ {
		if len(rest) < frameSectionLen {
			return 0, fmt.Errorf("%w: truncated section %d header", ErrFrameCorrupt, i)
		}
		count := int(binary.LittleEndian.Uint32(rest[4:]))
		recBytes := len(rest) - frameSectionLen
		if count > recBytes/FrameRecordLen {
			return 0, fmt.Errorf("%w: section %d count %d exceeds body", ErrFrameCorrupt, i, count)
		}
		rest = rest[frameSectionLen+count*FrameRecordLen:]
		total += count
	}
	if len(rest) != 0 {
		return 0, fmt.Errorf("%w: %d trailing body bytes", ErrFrameCorrupt, len(rest))
	}
	if total != records {
		return 0, fmt.Errorf("%w: header declares %d records, sections carry %d", ErrFrameCorrupt, records, total)
	}

	rest = body
	for i := 0; i < sections; i++ {
		site := int(int32(binary.LittleEndian.Uint32(rest)))
		count := int(binary.LittleEndian.Uint32(rest[4:]))
		sec := BatchSection{
			Site: site,
			recs: rest[frameSectionLen : frameSectionLen+count*FrameRecordLen],
			n:    count,
		}
		if err := emit(sec); err != nil {
			return 0, err
		}
		rest = rest[frameSectionLen+count*FrameRecordLen:]
	}
	return n, nil
}
