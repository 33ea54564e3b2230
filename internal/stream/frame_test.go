package stream

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"reflect"
	"testing"

	"rfidtrack/internal/model"
)

// frameRec is one decoded record of a section.
type frameRec struct {
	T    model.Epoch
	Tag  model.TagID
	Mask model.Mask
}

// frameSection is one materialized section, in wire order.
type frameSection struct {
	Site int
	Recs []frameRec
}

// frameSections returns a representative multi-site frame payload, empty
// section included.
func frameSections() []frameSection {
	return []frameSection{
		{0, []frameRec{{T: 0, Tag: 0, Mask: 1}, {T: 299, Tag: 41, Mask: 0b1011}}},
		{3, []frameRec{{T: 1<<31 - 1, Tag: 1 << 20, Mask: ^model.Mask(0)}}},
		{7, nil}, // empty sections are legal
	}
}

// buildFrame encodes secs in order with a fresh FrameBuilder.
func buildFrame(secs []frameSection) []byte {
	var b FrameBuilder
	b.Reset()
	for _, s := range secs {
		b.BeginSection(s.Site)
		for _, r := range s.Recs {
			b.Add(r.T, r.Tag, r.Mask)
		}
	}
	return b.Finish()
}

// decodeFrame materializes every section of one frame, in wire order.
func decodeFrame(b []byte) ([]frameSection, int, error) {
	var got []frameSection
	n, err := DecodeBatchFrame(b, func(s BatchSection) error {
		sec := frameSection{Site: s.Site}
		for i := 0; i < s.Len(); i++ {
			t, tag, mask := s.At(i)
			sec.Recs = append(sec.Recs, frameRec{t, tag, mask})
		}
		got = append(got, sec)
		return nil
	})
	return got, n, err
}

// TestFrameRoundTrip pins encode -> decode identity, including empty
// sections and extreme field values.
func TestFrameRoundTrip(t *testing.T) {
	secs := frameSections()
	frame := buildFrame(secs)
	got, n, err := decodeFrame(frame)
	if err != nil {
		t.Fatalf("DecodeBatchFrame: %v", err)
	}
	if n != len(frame) {
		t.Fatalf("decode consumed %d of %d bytes", n, len(frame))
	}
	if !reflect.DeepEqual(got, secs) {
		t.Fatalf("round trip diverged:\n got %+v\nwant %+v", got, secs)
	}
}

// TestFrameBuilderReuse pins the zero-alloc reuse contract: after Reset the
// builder produces an identical frame from the same backing array.
func TestFrameBuilderReuse(t *testing.T) {
	var b FrameBuilder
	encode := func() []byte {
		b.Reset()
		b.BeginSection(2)
		b.Add(10, 20, 3)
		b.Add(11, 21, 4)
		return b.Finish()
	}
	first := append([]byte(nil), encode()...)
	if allocs := testing.AllocsPerRun(100, func() { encode() }); allocs != 0 {
		t.Fatalf("FrameBuilder reuse allocates %v per frame", allocs)
	}
	if !reflect.DeepEqual(encode(), first) {
		t.Fatalf("reused builder produced a different frame")
	}
	if got := b.Records(); got != 2 {
		t.Fatalf("Records() = %d, want 2", got)
	}
	if got := b.Len(); got != len(first) {
		t.Fatalf("Len() = %d, want %d", got, len(first))
	}
}

// TestFrameTornAndCorrupt pins the refusal contract: any prefix decodes as
// partial, and any single flipped bit in a complete frame is refused as
// corrupt (the CRC covers header and body both).
func TestFrameTornAndCorrupt(t *testing.T) {
	frame := buildFrame(frameSections())
	for cut := 0; cut < len(frame); cut++ {
		_, _, err := decodeFrame(frame[:cut])
		if !errors.Is(err, ErrFramePartial) && !errors.Is(err, ErrFrameCorrupt) {
			t.Fatalf("cut at %d: err = %v", cut, err)
		}
	}
	for i := range frame {
		dirty := append([]byte(nil), frame...)
		dirty[i] ^= 0x40
		if _, _, err := decodeFrame(dirty); err == nil {
			t.Fatalf("flipped byte %d decoded silently", i)
		}
	}
}

// TestFrameHostileHeaders pins that implausible lengths and counts are
// refused before any record materializes, with the right error class.
func TestFrameHostileHeaders(t *testing.T) {
	patch := func(off int, v uint32) []byte {
		frame := buildFrame(frameSections())
		binary.LittleEndian.PutUint32(frame[off:], v)
		// Recompute the CRC so only the patched field is at fault.
		crc := crc32Of(frame[:len(frame)-frameTrailerLen])
		binary.LittleEndian.PutUint32(frame[len(frame)-frameTrailerLen:], crc)
		return frame
	}
	cases := []struct {
		name  string
		frame []byte
		want  error
	}{
		{"bad magic", patch(0, 0xdeadbeef), ErrFrameCorrupt},
		{"oversized frame length", patch(4, MaxFrameBytes+1), ErrFrameCorrupt},
		{"undersized frame length", patch(4, 3), ErrFrameCorrupt},
		{"declared longer than buffer", patch(4, 1<<20), ErrFramePartial},
		{"section count beyond body", patch(8, 1<<30), ErrFrameCorrupt},
		{"record count beyond body", patch(12, 1<<30), ErrFrameCorrupt},
		{"record count mismatch", patch(12, 2), ErrFrameCorrupt},
		{"section record count beyond body", patch(frameHeaderLen+4, 1<<30), ErrFrameCorrupt},
	}
	for _, tc := range cases {
		if got, n, err := decodeFrame(tc.frame); !errors.Is(err, tc.want) || n != 0 || got != nil {
			t.Errorf("%s: %d sections, n=%d, err = %v, want none, 0, %v", tc.name, len(got), n, err, tc.want)
		}
	}
}

// TestFrameScan pins how a buffer of frames decodes: a frame travels
// alone, so a buffer holding exactly one frame decodes whole, and bytes
// after it — a second frame, a torn one, or garbage — make the buffer
// corrupt, never a partial decode of its first frame.
func TestFrameScan(t *testing.T) {
	one := buildFrame(frameSections())
	got, n, err := decodeFrame(one)
	if err != nil || n != len(one) || !reflect.DeepEqual(got, frameSections()) {
		t.Fatalf("single frame: %d sections, n=%d, err=%v", len(got), n, err)
	}
	cases := []struct {
		name string
		buf  []byte
	}{
		{"trailing bytes", append(buildFrame(frameSections()), "garbage"...)},
		{"two frames", append(buildFrame(frameSections()), one...)},
		{"frame then torn frame", append(buildFrame(frameSections()), one[:7]...)},
	}
	for _, tc := range cases {
		if got, n, err := decodeFrame(tc.buf); !errors.Is(err, ErrFrameCorrupt) || n != 0 || got != nil {
			t.Errorf("%s: %d sections, n=%d, err = %v, want none, 0, %v", tc.name, len(got), n, err, ErrFrameCorrupt)
		}
	}
}

// crc32Of is the test-side CRC helper (Castagnoli, like the envelope).
func crc32Of(b []byte) uint32 {
	return crc32.Checksum(b, castagnoli)
}
