// Zero-copy bridges between wire-layout reading records and Reading. A
// record (epoch u32 | tag u32 | mask u64, little-endian) — the unit of an
// RFB1 frame section and of a write-ahead-log reading run — has exactly the
// memory layout of Reading on a little-endian machine, so record bytes can
// be reinterpreted as a []Reading view, and readings as record bytes,
// without decoding or encoding a single field. Both casts are gated:
// compile-time array-length asserts pin the struct layout, and the runtime
// checks native endianness plus the view's alignment, falling back to a
// portable per-record copy when either fails. A result may alias its
// argument: it is read-only and valid only as long as the argument is.
package dist

import (
	"encoding/binary"
	"unsafe"

	"rfidtrack/internal/model"
	"rfidtrack/internal/stream"
)

// Compile-time layout asserts: Reading must be exactly one wire record —
// 16 bytes with T at offset 0, ID at 4, Mask at 8. A field reorder or type
// change that breaks the casts breaks the build here, not silently on the
// wire or on disk.
var (
	_ [stream.FrameRecordLen]byte = [unsafe.Sizeof(Reading{})]byte{}
	_ [0]byte                     = [unsafe.Offsetof(Reading{}.T)]byte{}
	_ [4]byte                     = [unsafe.Offsetof(Reading{}.ID)]byte{}
	_ [8]byte                     = [unsafe.Offsetof(Reading{}.Mask)]byte{}
)

// nativeLE reports whether this machine stores integers little-endian,
// i.e. whether wire records and in-memory readings are byte-identical.
var nativeLE = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// ReadingsFromWire returns the readings that len(raw)/16 wire records
// hold: a view over raw where the machine is little-endian and raw is
// aligned for the struct, a decoded copy otherwise. Trailing bytes short of
// a whole record are ignored; callers validate lengths before they get here.
func ReadingsFromWire(raw []byte) []Reading {
	n := len(raw) / stream.FrameRecordLen
	if n == 0 {
		return nil
	}
	if p := unsafe.Pointer(&raw[0]); nativeLE && uintptr(p)%unsafe.Alignof(Reading{}) == 0 {
		return unsafe.Slice((*Reading)(p), n)
	}
	rs := make([]Reading, n)
	for i := range rs {
		rec := raw[i*stream.FrameRecordLen:]
		rs[i] = Reading{
			T:    model.Epoch(int32(binary.LittleEndian.Uint32(rec))),
			ID:   model.TagID(int32(binary.LittleEndian.Uint32(rec[4:]))),
			Mask: model.Mask(binary.LittleEndian.Uint64(rec[8:])),
		}
	}
	return rs
}

// ReadingsToWire returns rs as wire records: a view over rs on a
// little-endian machine, an encoded copy otherwise.
func ReadingsToWire(rs []Reading) []byte {
	if len(rs) == 0 {
		return nil
	}
	if nativeLE {
		return unsafe.Slice((*byte)(unsafe.Pointer(&rs[0])), len(rs)*stream.FrameRecordLen)
	}
	raw := make([]byte, len(rs)*stream.FrameRecordLen)
	for i, r := range rs {
		rec := raw[i*stream.FrameRecordLen:]
		binary.LittleEndian.PutUint32(rec, uint32(r.T))
		binary.LittleEndian.PutUint32(rec[4:], uint32(r.ID))
		binary.LittleEndian.PutUint64(rec[8:], uint64(r.Mask))
	}
	return raw
}
