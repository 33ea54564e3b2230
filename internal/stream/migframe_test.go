package stream

import (
	"errors"
	"reflect"
	"testing"

	"rfidtrack/internal/model"
)

// migSamples is a spread of representative migration transfers, including
// the empty-payload frame (a MigrateNone transfer carrying query state is
// never empty, so empty means "pure routing notification").
func migSamples() []MigrationFrame {
	return []MigrationFrame{
		{Object: 0, From: 0, To: 1, At: 0},
		{Object: 41, From: 3, To: 0, At: 299, Payload: []byte{1}},
		{Object: 1 << 20, From: 14, To: 15, At: 1 << 29,
			Payload: []byte{0xde, 0xad, 0xbe, 0xef, 0, 1, 2, 3, 4, 5, 6, 7}},
	}
}

// TestMigrationFrameRoundTrip pins encode -> decode identity plus the
// consumed-byte accounting a stream reader depends on.
func TestMigrationFrameRoundTrip(t *testing.T) {
	var buf []byte
	var ends []int
	for _, mf := range migSamples() {
		buf = AppendMigrationFrame(buf, mf.Object, mf.From, mf.To, mf.At, mf.Payload)
		ends = append(ends, len(buf))
	}
	off := 0
	for i, want := range migSamples() {
		got, n, err := DecodeMigrationFrame(buf[off:])
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		// Payload is a view into buf; compare by value.
		if got.Object != want.Object || got.From != want.From || got.To != want.To || got.At != want.At {
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

// TestMigrationFramePartial pins the torn-frame contract: any prefix of a
// valid frame yields ErrFramePartial, never a decode and never corruption
// (the header, magic included, survives every cut that keeps it whole).
func TestMigrationFramePartial(t *testing.T) {
	full := AppendMigrationFrame(nil, 7, 1, 2, 600, []byte{9, 8, 7})
	for cut := 0; cut < len(full); cut++ {
		_, n, err := DecodeMigrationFrame(full[:cut])
		if !errors.Is(err, ErrFramePartial) {
			t.Fatalf("cut at %d: err = %v, want ErrFramePartial", cut, err)
		}
		if n != 0 {
			t.Fatalf("cut at %d: consumed %d bytes on error", cut, n)
		}
	}
}

// TestMigrationFrameCorruption pins that bit rot anywhere in a complete
// frame is detected — as corruption, or as a partial frame when the flipped
// bit lands in the length field — never silently decoded as different data.
func TestMigrationFrameCorruption(t *testing.T) {
	want := MigrationFrame{Object: 17, From: 2, To: 5, At: 600, Payload: []byte{1, 2, 3}}
	clean := AppendMigrationFrame(nil, want.Object, want.From, want.To, want.At, want.Payload)
	for i := range clean {
		for _, bit := range []byte{0x01, 0x80} {
			dirty := append([]byte(nil), clean...)
			dirty[i] ^= bit
			got, _, err := DecodeMigrationFrame(dirty)
			if err == nil {
				if got.Object != want.Object || got.From != want.From ||
					got.To != want.To || got.At != want.At ||
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

var benchMigFrameSink model.TagID

// BenchmarkMigrationWire measures the round trip a migration payload takes
// across the wire codec: frame encode plus decode of a representative
// payload size (a MigrateReadings transfer with recent history).
func BenchmarkMigrationWire(b *testing.B) {
	payload := make([]byte, 2048)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	buf := make([]byte, 0, migFrameHeaderLen+len(payload)+frameTrailerLen)
	b.SetBytes(int64(migFrameHeaderLen + len(payload) + frameTrailerLen))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = AppendMigrationFrame(buf[:0], 41, 3, 9, model.Epoch(i), payload)
		mf, _, err := DecodeMigrationFrame(buf)
		if err != nil {
			b.Fatal(err)
		}
		benchMigFrameSink = mf.Object
	}
}
