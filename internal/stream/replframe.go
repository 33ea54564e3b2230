// The replication frame codec: the wire format of the WAL shipping
// stream a warm standby tails (POST /repl/subscribe). One RFS1 frame
// carries one unit of the primary's durable state — a byte range of a WAL
// segment, a chunk of a snapshot file, the manifest commit point, or the
// primary's status heartbeat:
//
//	header (28 bytes):
//	  [4 bytes magic "RFS1"]
//	  [4 bytes little-endian frame length, header and trailer included]
//	  [4 bytes little-endian kind]
//	  [4 bytes little-endian site]  (meaning varies by kind; see constants)
//	  [4 bytes little-endian gen]
//	  [8 bytes little-endian offset]
//	body:
//	  [payload bytes: raw segment or snapshot bytes, opaque here]
//	trailer:
//	  [4 bytes CRC32-Castagnoli of everything before it]
//
// The magic, length and CRC are the shared frame envelope's (envelope.go),
// so torn frames are distinguishable from corrupt ones (ErrFramePartial
// vs ErrFrameCorrupt), and decode yields a zero-copy payload view. The
// payload bytes are not
// interpreted — the follower writes them verbatim and the WAL's own record
// CRCs vouch for their content at recovery time — so this layer only
// guarantees that the bytes that arrive are the bytes that were sent,
// addressed to the right file and offset.
package stream

import (
	"encoding/binary"
	"fmt"
)

// ReplMagic identifies (and versions) a replication frame: "RFS1" as a
// little-endian uint32. An incompatible future layout gets a new magic.
const ReplMagic = uint32('R') | uint32('F')<<8 | uint32('S')<<16 | uint32('1')<<24

// Replication frame kinds. The Site/Gen/Off header fields are overloaded
// per kind; the payload is raw bytes for the chunk kinds and empty or
// fixed-layout for the control kinds.
const (
	// ReplSegment ships a byte range of one WAL segment: Site is the
	// segment's site code (>= 0 for reading segments, -1/-2/-3 for the
	// departure/migration/alert segments), Gen its generation, Off the file
	// offset the payload starts at.
	ReplSegment = 1
	// ReplSnapshot ships a byte range of a snapshot file exactly as
	// ReplSegment ships a segment's: Gen is the generation whose manifest
	// commits the snapshot (the file name derives from it), Off the file
	// offset the payload starts at. Site is 0 and ignored.
	ReplSnapshot = 2
	// ReplManifest commits the follower's manifest: Gen is the new segment
	// generation, Off the snapshot boundary epoch, and Site is 1 when a
	// snapshot is named (the generation's, which ReplSnapshot chunks
	// shipped) and 0 before the first snapshot. It is always the last
	// state-bearing frame of a batch: the follower fsyncs everything
	// shipped before it, then commits.
	ReplManifest = 3
	// ReplTruncate cuts a follower segment back to Off bytes: Site and Gen
	// address the segment. Sent when the follower reports an offset past the
	// primary's file (the primary recovered and truncated a torn tail the
	// follower had already shipped).
	ReplTruncate = 4
	// ReplStatus is the primary's heartbeat, always the final frame of a
	// response: Off is the primary's gossip fence epoch, and the payload is
	// 16 bytes — little-endian int64 stream time then int64 appended WAL
	// bytes. Site and Gen are unused.
	ReplStatus = 5
)

// replFrameHeaderLen is the fixed frame prefix: magic, frame length,
// kind, site, gen, offset.
const replFrameHeaderLen = 28

// MaxReplPayload bounds one replication frame's payload. Shippers chunk
// files well below this (see internal/wal); the bound exists so a hostile
// length can never size a buffer.
const MaxReplPayload = 1 << 22

// ReplStatusLen is the fixed payload length of a ReplStatus frame.
const ReplStatusLen = 16

// ReplFrame is one decoded replication frame. Payload is a view into the
// decode buffer — valid only while that buffer is.
type ReplFrame struct {
	// Kind is one of the Repl* constants.
	Kind int
	// Site, Gen and Off are the kind-dependent addressing fields; see the
	// kind constants for their meaning.
	Site, Gen int
	Off       int64
	// Payload is the raw shipped bytes, opaque at this layer.
	Payload []byte
}

// AppendReplFrame appends the framed encoding of one replication unit to
// dst and returns the extended slice.
func AppendReplFrame(dst []byte, kind, site, gen int, off int64, payload []byte) []byte {
	start := len(dst)
	dst = beginFrame(dst, ReplMagic)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(kind))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(site))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(gen))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(off))
	dst = append(dst, payload...)
	return sealFrame(dst, start)
}

// DecodeReplFrame decodes the first replication frame in b, returning the
// frame and its total length in bytes. The frame's Payload is a zero-copy
// view into b. A buffer shorter than the frame's declared length yields
// ErrFramePartial; a complete frame that fails validation (bad magic, CRC
// mismatch, unknown kind, malformed control payload) yields
// ErrFrameCorrupt. On error n is 0.
func DecodeReplFrame(b []byte) (rf ReplFrame, n int, err error) {
	body, n, err := openFrame(b, ReplMagic, replFrameHeaderLen, replFrameHeaderLen+MaxReplPayload+frameTrailerLen)
	if err != nil {
		return rf, 0, err
	}
	rf.Kind = int(int32(binary.LittleEndian.Uint32(b[8:])))
	rf.Site = int(int32(binary.LittleEndian.Uint32(b[12:])))
	rf.Gen = int(int32(binary.LittleEndian.Uint32(b[16:])))
	rf.Off = int64(binary.LittleEndian.Uint64(b[20:]))
	if len(body) > 0 {
		rf.Payload = body
	}
	switch rf.Kind {
	case ReplSegment, ReplSnapshot:
		if rf.Off < 0 {
			return ReplFrame{}, 0, fmt.Errorf("%w: negative replication chunk offset %d", ErrFrameCorrupt, rf.Off)
		}
	case ReplManifest:
		if len(body) != 0 {
			return ReplFrame{}, 0, fmt.Errorf("%w: manifest frame carries %d payload bytes", ErrFrameCorrupt, len(body))
		}
	case ReplTruncate:
		if len(body) != 0 || rf.Off < 0 {
			return ReplFrame{}, 0, fmt.Errorf("%w: malformed truncate frame", ErrFrameCorrupt)
		}
	case ReplStatus:
		if len(body) != ReplStatusLen {
			return ReplFrame{}, 0, fmt.Errorf("%w: status frame payload is %d bytes, want %d", ErrFrameCorrupt, len(body), ReplStatusLen)
		}
	default:
		return ReplFrame{}, 0, fmt.Errorf("%w: unknown replication frame kind %d", ErrFrameCorrupt, rf.Kind)
	}
	return rf, n, nil
}

// AppendReplStatus appends a ReplStatus heartbeat frame: the primary's
// gossip fence epoch, its current stream time and its appended WAL bytes.
func AppendReplStatus(dst []byte, fenceEpoch, streamTime, appendedBytes int64) []byte {
	var body [ReplStatusLen]byte
	binary.LittleEndian.PutUint64(body[:], uint64(streamTime))
	binary.LittleEndian.PutUint64(body[8:], uint64(appendedBytes))
	return AppendReplFrame(dst, ReplStatus, 0, 0, fenceEpoch, body[:])
}

// DecodeReplStatus unpacks a ReplStatus frame's fields. The frame must
// have kind ReplStatus (DecodeReplFrame already validated the payload
// length).
func DecodeReplStatus(rf ReplFrame) (fenceEpoch, streamTime, appendedBytes int64) {
	return rf.Off,
		int64(binary.LittleEndian.Uint64(rf.Payload[:8])),
		int64(binary.LittleEndian.Uint64(rf.Payload[8:]))
}
