// The frame envelope shared by the three network frames: RFB1 ingest
// batches (frame.go), RFM1 migrations (migframe.go) and RFS1 WAL shipping
// (replframe.go). Every one of them is laid out as
//
//	[4 bytes magic, e.g. "RFB1" as a little-endian uint32]
//	[4 bytes little-endian frame length, header and trailer included]
//	[fixed header fields, per frame kind]
//	[body]
//	[4 bytes CRC32-Castagnoli of everything before it]
//
// and this file is the only code that writes or checks the magic, the
// length and the CRC. The codecs encode and decode their own header
// fields and bodies between beginFrame/sealFrame and after openFrame.
//
// Opening a frame keeps two failures apart: a buffer that ends before the
// frame does (ErrFramePartial — a streaming reader retries with more
// bytes) and a complete frame whose bytes are wrong (ErrFrameCorrupt). No
// length from the wire is trusted before it is checked against the bytes
// actually present.
package stream

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// frameTrailerLen is the CRC32-Castagnoli trailer every frame ends with.
const frameTrailerLen = 4

// ErrFramePartial reports a frame cut short: fewer bytes than its header
// (or its declared length) requires. A streaming reader that buffered only
// a prefix retries with more bytes; a log ends cleanly at the last whole
// record. The WAL record codec (wal.go) reports its torn tails with it too.
var ErrFramePartial = errors.New("stream: partial frame")

// ErrFrameCorrupt reports a complete frame or WAL record whose bytes are
// not valid: bad magic, implausible length, CRC mismatch, or fields the
// codec refuses. Recovery treats a corrupt WAL tail like a torn one, but
// it means bytes rotted in place rather than a write being interrupted.
var ErrFrameCorrupt = errors.New("stream: corrupt frame")

// castagnoli is the CRC32-Castagnoli table (hardware-accelerated on
// amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// beginFrame appends magic and a length placeholder to dst. The caller
// appends the frame's header fields and body, then seals the frame with
// sealFrame(dst, start), start being len(dst) before this call.
func beginFrame(dst []byte, magic uint32) []byte {
	return append(dst, byte(magic), byte(magic>>8), byte(magic>>16), byte(magic>>24), 0, 0, 0, 0)
}

// sealFrame patches the length of the frame that begins at dst[start] and
// appends its CRC trailer.
func sealFrame(dst []byte, start int) []byte {
	binary.LittleEndian.PutUint32(dst[start+4:], uint32(len(dst)-start+frameTrailerLen))
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(dst[start:], castagnoli))
}

// openFrame checks the envelope of the frame at the start of b: its magic,
// a declared length between headerLen plus the trailer and maxLen, the
// bytes that length needs, and the CRC. It returns the body (the bytes
// between the headerLen-byte header and the trailer, a view into b) and
// the frame's total length n. The header fields are b[8:headerLen]. On
// error n is 0.
func openFrame(b []byte, magic uint32, headerLen, maxLen int) (body []byte, n int, err error) {
	if len(b) < headerLen {
		return nil, 0, ErrFramePartial
	}
	if got := binary.LittleEndian.Uint32(b); got != magic {
		return nil, 0, fmt.Errorf("%w: %s: bad magic %#x", ErrFrameCorrupt, magicName(magic), got)
	}
	n = int(binary.LittleEndian.Uint32(b[4:]))
	if n < headerLen+frameTrailerLen || n > maxLen {
		return nil, 0, fmt.Errorf("%w: %s: implausible frame length %d", ErrFrameCorrupt, magicName(magic), n)
	}
	if len(b) < n {
		return nil, 0, ErrFramePartial
	}
	end := n - frameTrailerLen
	if crc32.Checksum(b[:end], castagnoli) != binary.LittleEndian.Uint32(b[end:]) {
		return nil, 0, fmt.Errorf("%w: %s: CRC mismatch", ErrFrameCorrupt, magicName(magic))
	}
	return b[headerLen:end], n, nil
}

// magicName renders a magic as its four ASCII bytes, for error messages.
func magicName(magic uint32) string {
	return string(binary.LittleEndian.AppendUint32(nil, magic))
}
