package stream

import (
	"errors"
	"reflect"
	"testing"
)

// replSamples is a spread of representative replication frames: segment
// and snapshot chunks at zero and non-zero offsets, the empty-payload
// control kinds, and a status heartbeat.
func replSamples() []ReplFrame {
	return []ReplFrame{
		{Kind: ReplSegment, Site: 0, Gen: 1, Off: 0, Payload: []byte{1}},
		{Kind: ReplSegment, Site: -2, Gen: 7, Off: 1 << 20,
			Payload: []byte{0xde, 0xad, 0xbe, 0xef, 0, 1, 2, 3, 4, 5, 6, 7}},
		{Kind: ReplSnapshot, Site: 0, Gen: 300, Off: 0, Payload: []byte{42}},
		{Kind: ReplSnapshot, Site: 1, Gen: 900, Off: 4096, Payload: []byte{9, 9, 9}},
		{Kind: ReplManifest, Site: 1, Gen: 3, Off: 900},
		{Kind: ReplTruncate, Site: 2, Gen: 5, Off: 128},
		{Kind: ReplStatus, Off: 4,
			Payload: []byte{0x84, 3, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0}},
	}
}

// TestReplFrameRoundTrip pins encode -> decode identity plus the
// consumed-byte accounting the follower's stream reader depends on.
func TestReplFrameRoundTrip(t *testing.T) {
	var buf []byte
	var ends []int
	for _, rf := range replSamples() {
		buf = AppendReplFrame(buf, rf.Kind, rf.Site, rf.Gen, rf.Off, rf.Payload)
		ends = append(ends, len(buf))
	}
	off := 0
	for i, want := range replSamples() {
		got, n, err := DecodeReplFrame(buf[off:])
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		// Payload is a view into buf; compare by value.
		if got.Kind != want.Kind || got.Site != want.Site || got.Gen != want.Gen || got.Off != want.Off {
			t.Fatalf("frame %d: decoded %+v, want %+v", i, got, want)
		}
		if !reflect.DeepEqual(got.Payload, want.Payload) {
			t.Fatalf("frame %d: payload %v, want %v", i, got.Payload, want.Payload)
		}
		off += n
		if off != ends[i] {
			t.Fatalf("frame %d: consumed through %d, want %d", i, off, ends[i])
		}
	}
	if off != len(buf) {
		t.Fatalf("consumed %d of %d bytes", off, len(buf))
	}
}

// TestReplStatusRoundTrip pins the status heartbeat's field packing: the
// fence epoch, stream time and appended-bytes counter a standby uses to
// judge its primary's liveness must survive the wire exactly.
func TestReplStatusRoundTrip(t *testing.T) {
	buf := AppendReplStatus(nil, 3, 900, 1<<30)
	rf, n, err := DecodeReplFrame(buf)
	if err != nil || n != len(buf) {
		t.Fatalf("decode: n=%d err=%v", n, err)
	}
	if rf.Kind != ReplStatus {
		t.Fatalf("kind = %d, want ReplStatus", rf.Kind)
	}
	fence, stream, appended := DecodeReplStatus(rf)
	if fence != 3 || stream != 900 || appended != 1<<30 {
		t.Fatalf("status = (%d, %d, %d), want (3, 900, %d)", fence, stream, appended, 1<<30)
	}
}

// TestReplFramePartial pins the torn-frame contract: any prefix of a
// valid frame yields ErrFramePartial, never a decode and never corruption.
func TestReplFramePartial(t *testing.T) {
	full := AppendReplFrame(nil, ReplSegment, 3, 2, 600, []byte{9, 8, 7})
	for cut := 0; cut < len(full); cut++ {
		_, n, err := DecodeReplFrame(full[:cut])
		if !errors.Is(err, ErrFramePartial) {
			t.Fatalf("cut at %d: err = %v, want ErrFramePartial", cut, err)
		}
		if n != 0 {
			t.Fatalf("cut at %d: consumed %d bytes on error", cut, n)
		}
	}
}

// TestReplFrameCorruption pins that bit rot anywhere in a complete frame
// is detected — as corruption, or as a partial frame when the flipped bit
// lands in the length field — never silently applied to the follower's
// WAL as different bytes.
func TestReplFrameCorruption(t *testing.T) {
	want := ReplFrame{Kind: ReplSegment, Site: 2, Gen: 5, Off: 600, Payload: []byte{1, 2, 3}}
	clean := AppendReplFrame(nil, want.Kind, want.Site, want.Gen, want.Off, want.Payload)
	for i := range clean {
		for _, bit := range []byte{0x01, 0x80} {
			dirty := append([]byte(nil), clean...)
			dirty[i] ^= bit
			got, _, err := DecodeReplFrame(dirty)
			if err == nil {
				if got.Kind != want.Kind || got.Site != want.Site ||
					got.Gen != want.Gen || got.Off != want.Off ||
					!reflect.DeepEqual(got.Payload, want.Payload) {
					t.Fatalf("byte %d bit %#x decoded silently as %+v", i, bit, got)
				}
				continue
			}
			if !errors.Is(err, ErrFrameCorrupt) && !errors.Is(err, ErrFramePartial) {
				t.Fatalf("byte %d bit %#x: err = %v, want frame error", i, bit, err)
			}
		}
	}
}

// TestReplFrameRejectsMalformedControl pins the control-kind validation:
// a manifest or truncate frame with payload bytes, a status frame of the
// wrong length, and an unknown kind are corruption, not data.
func TestReplFrameRejectsMalformedControl(t *testing.T) {
	cases := []struct {
		name  string
		frame []byte
	}{
		{"manifest with payload", AppendReplFrame(nil, ReplManifest, 0, 1, 300, []byte{1})},
		{"truncate with payload", AppendReplFrame(nil, ReplTruncate, 0, 1, 64, []byte{1})},
		{"status short", AppendReplFrame(nil, ReplStatus, 0, 0, 1, []byte{1, 2, 3})},
		{"unknown kind", AppendReplFrame(nil, 99, 0, 0, 0, nil)},
		{"negative chunk offset", AppendReplFrame(nil, ReplSegment, 0, 1, -8, []byte{1})},
	}
	for _, tc := range cases {
		if _, n, err := DecodeReplFrame(tc.frame); !errors.Is(err, ErrFrameCorrupt) || n != 0 {
			t.Fatalf("%s: n=%d err=%v, want ErrFrameCorrupt", tc.name, n, err)
		}
	}
}

var benchReplFrameSink int64

// BenchmarkReplWire measures the encode+decode round trip of a
// representative shipping chunk (a 4 KiB segment tail).
func BenchmarkReplWire(b *testing.B) {
	payload := make([]byte, 4096)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	buf := make([]byte, 0, replFrameHeaderLen+len(payload)+frameTrailerLen)
	b.SetBytes(int64(replFrameHeaderLen + len(payload) + frameTrailerLen))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = AppendReplFrame(buf[:0], ReplSegment, 3, 2, int64(i), payload)
		rf, _, err := DecodeReplFrame(buf)
		if err != nil {
			b.Fatal(err)
		}
		benchReplFrameSink = rf.Off
	}
}
