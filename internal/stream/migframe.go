// The migration frame codec: the network wire format of one inter-site
// state migration (internal/dist's encoded payloads crossing process
// boundaries). One frame carries one departure plus its opaque payload:
//
//	header (24 bytes):
//	  [4 bytes magic "RFM1"]
//	  [4 bytes little-endian frame length, header and trailer included]
//	  [4 bytes little-endian object tag]
//	  [4 bytes little-endian source site]
//	  [4 bytes little-endian destination site]
//	  [4 bytes little-endian departure epoch]
//	body:
//	  [payload bytes: the dist migration payload, opaque here]
//	trailer:
//	  [4 bytes CRC32-Castagnoli of everything before it]
//
// The magic, length and CRC are the shared frame envelope's (envelope.go),
// so torn frames are distinguishable from corrupt ones (ErrFramePartial
// vs ErrFrameCorrupt) exactly as for RFB1. The payload itself is not
// interpreted — its own codecs (rfinfer collapsed/CR state, query pattern
// state) harden its contents — so the frame layer only vouches that the
// bytes that arrive are the bytes that were sent, addressed to the right
// transfer.
package stream

import (
	"encoding/binary"

	"rfidtrack/internal/model"
)

// MigrationMagic identifies (and versions) a migration frame: "RFM1" as a
// little-endian uint32. An incompatible future layout gets a new magic.
const MigrationMagic = uint32('R') | uint32('F')<<8 | uint32('M')<<16 | uint32('1')<<24

// migFrameHeaderLen is the fixed frame prefix: magic, frame length,
// object, from, to, at.
const migFrameHeaderLen = 24

// MaxMigrationPayload bounds one frame's payload. The largest real payload
// (MigrateFull of a long-lived object with many candidate containers) is
// tens of kilobytes; 16MB leaves three orders of magnitude of headroom
// while keeping a hostile length from sizing a buffer.
const MaxMigrationPayload = 1 << 24

// MigrationFrame is one decoded migration transfer: the departure identity
// and the opaque payload. Payload is a view into the decode buffer — valid
// only while that buffer is.
type MigrationFrame struct {
	// Object is the migrating tag; From and To the source and destination
	// sites; At the departure epoch — together the departure identity the
	// receiver routes the payload by.
	Object   model.TagID
	From, To int
	At       model.Epoch
	// Payload is the encoded migration state, opaque at this layer.
	Payload []byte
}

// AppendMigrationFrame appends the framed encoding of one migration
// transfer to dst and returns the extended slice.
func AppendMigrationFrame(dst []byte, object model.TagID, from, to int, at model.Epoch, payload []byte) []byte {
	start := len(dst)
	dst = beginFrame(dst, MigrationMagic)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(object))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(from))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(to))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(at))
	dst = append(dst, payload...)
	return sealFrame(dst, start)
}

// DecodeMigrationFrame decodes the first migration frame in b, returning
// the frame and its total length in bytes. The frame's Payload is a
// zero-copy view into b. A buffer shorter than the frame's declared length
// yields ErrFramePartial; a complete frame that fails validation yields
// ErrFrameCorrupt. On error n is 0.
func DecodeMigrationFrame(b []byte) (mf MigrationFrame, n int, err error) {
	body, n, err := openFrame(b, MigrationMagic, migFrameHeaderLen, migFrameHeaderLen+MaxMigrationPayload+frameTrailerLen)
	if err != nil {
		return mf, 0, err
	}
	mf.Object = model.TagID(int32(binary.LittleEndian.Uint32(b[8:])))
	mf.From = int(int32(binary.LittleEndian.Uint32(b[12:])))
	mf.To = int(int32(binary.LittleEndian.Uint32(b[16:])))
	mf.At = model.Epoch(int32(binary.LittleEndian.Uint32(b[20:])))
	if len(body) > 0 {
		mf.Payload = body
	}
	return mf, n, nil
}
