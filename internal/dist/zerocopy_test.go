package dist

import (
	"reflect"
	"testing"
	"unsafe"

	"rfidtrack/internal/model"
	"rfidtrack/internal/stream"
)

// TestWireCasts pins both bridges against the portable frame codec: the
// bytes ReadingsToWire yields are what FrameBuilder.Add encodes, and
// ReadingsFromWire reads them back — as a view where the bytes are aligned,
// as a copy (same readings) one byte off.
func TestWireCasts(t *testing.T) {
	rs := []Reading{{T: 0, ID: 0, Mask: 1}, {T: 299, ID: 41, Mask: 0b1011}, {T: 1 << 29, ID: 1 << 20, Mask: ^model.Mask(0)}}
	var fb stream.FrameBuilder
	fb.BeginSection(0)
	for _, r := range rs {
		fb.Add(r.T, r.ID, r.Mask)
	}
	var want []byte
	if _, err := stream.DecodeBatchFrame(fb.Finish(), func(sec stream.BatchSection) error {
		want = append(want, sec.Raw()...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	raw := ReadingsToWire(rs)
	if !reflect.DeepEqual(raw, want) {
		t.Fatalf("ReadingsToWire = % x, the frame codec encodes % x", raw, want)
	}

	// An aligned buffer (its backing is a []uint64), then the same bytes
	// one off.
	backing := make([]uint64, len(want)/8+1)
	buf := unsafe.Slice((*byte)(unsafe.Pointer(&backing[0])), len(backing)*8)
	copy(buf, want)
	got := ReadingsFromWire(buf[:len(want)])
	if !reflect.DeepEqual(got, rs) {
		t.Fatalf("aligned: ReadingsFromWire = %+v, want %+v", got, rs)
	}
	if nativeLE && unsafe.Pointer(&got[0]) != unsafe.Pointer(&buf[0]) {
		t.Error("aligned bytes were copied on a little-endian machine")
	}
	copy(buf[1:], want)
	got = ReadingsFromWire(buf[1 : 1+len(want)])
	if !reflect.DeepEqual(got, rs) {
		t.Fatalf("misaligned: ReadingsFromWire = %+v, want %+v", got, rs)
	}
	if unsafe.Pointer(&got[0]) == unsafe.Pointer(&buf[1]) {
		t.Error("misaligned bytes were cast in place")
	}
	if ReadingsFromWire(nil) != nil || ReadingsToWire(nil) != nil || len(ReadingsFromWire(want[:15])) != 0 {
		t.Error("empty input did not yield empty output")
	}
}
