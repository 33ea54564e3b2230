package stream

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"reflect"
	"testing"

	"rfidtrack/internal/model"
)

// walSamples is a spread of representative records.
func walSamples() []WALRecord {
	return []WALRecord{
		{Kind: WALReading, Site: 0, T: 0, Tag: 0, Mask: 1},
		{Kind: WALReading, Site: 3, T: 299, Tag: 41, Mask: 0b1011},
		{Kind: WALReading, Site: 15, T: 1 << 29, Tag: 1 << 20, Mask: ^model.Mask(0)},
		{Kind: WALDepart, Object: 7, From: 0, To: 1, At: 600},
		{Kind: WALDepart, Object: 1 << 20, From: 14, To: 15, At: 1 << 29},
		{Kind: WALMigration, Object: 7, From: 0, To: 1, At: 600},
		{Kind: WALMigration, Object: 9, From: 2, To: 0, At: 1200,
			Payload: []byte{0xde, 0xad, 0xbe, 0xef, 0x00, 0x01}},
		{Kind: WALAlert, Site: 1, Tag: 41, T: 120, At: 600, Pattern: "cold-chain", Values: []float64{1.5, -2.25}},
		{Kind: WALAlert, Site: 0, Tag: 7, T: 0, At: 0}, // no pattern, no values
		{Kind: WALRun, Site: 2, Run: runBytes(3)},
		{Kind: WALRun, Site: 1 << 20}, // an empty run
		{Kind: WALRun, Site: 0, Run: runBytes(300)},
	}
}

// runBytes returns n wire records with distinct contents.
func runBytes(n int) []byte {
	var fb FrameBuilder
	fb.BeginSection(0)
	for i := 0; i < n; i++ {
		fb.Add(model.Epoch(i*7), model.TagID(i%41), model.Mask(1+i%5))
	}
	frame := fb.Finish()
	return frame[frameHeaderLen+frameSectionLen : len(frame)-frameTrailerLen]
}

// walFrame wraps an arbitrary payload in a well-formed frame (right length,
// right CRC), so a test reaches the checks behind the envelope's.
func walFrame(payload []byte) []byte {
	b := make([]byte, walFrameHeader, walFrameHeader+len(payload))
	binary.LittleEndian.PutUint32(b, uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[4:], crc32.ChecksumIEEE(payload))
	return append(b, payload...)
}

// badRuns is a spread of run records the envelope vouches for and the run
// checks must refuse: a record count that does not follow from the length,
// a payload shorter than the run header, non-zero padding.
func badRuns() [][]byte {
	ragged := append([]byte{WALRun, 0, 0, 0, 1, 0, 0, 0}, runBytes(2)...)
	return [][]byte{
		walFrame(ragged[:len(ragged)-1]),
		walFrame(append(ragged, 0)),
		walFrame([]byte{WALRun, 0, 0, 0}),
		walFrame(append([]byte{WALRun, 0, 1, 0, 1, 0, 0, 0}, runBytes(1)...)),
	}
}

// TestWALRunLayout pins the run record's bytes: a 16-byte prefix — payload
// length, CRC, kind, three zero bytes, site — then the records verbatim, so
// in a segment of runs every record is 8-byte aligned and the same 16 bytes
// a frame section carries.
func TestWALRunLayout(t *testing.T) {
	recs := runBytes(5)
	b := AppendWALRecord(nil, WALRecord{Kind: WALRun, Site: 3, Run: recs})
	if len(b) != WALRunHeaderLen+len(recs) || WALRunHeaderLen%8 != 0 {
		t.Fatalf("run of %d record bytes framed in %d, header %d", len(recs), len(b), WALRunHeaderLen)
	}
	if got := binary.LittleEndian.Uint32(b); int(got) != len(b)-walFrameHeader {
		t.Fatalf("payload length %d, want %d", got, len(b)-walFrameHeader)
	}
	if b[8] != WALRun || b[9]|b[10]|b[11] != 0 || binary.LittleEndian.Uint32(b[12:]) != 3 {
		t.Fatalf("run header % x", b[8:16])
	}
	if !reflect.DeepEqual(b[WALRunHeaderLen:], recs) {
		t.Fatal("records are not carried verbatim")
	}
	hdr := WALRunHeader(3, recs)
	if !reflect.DeepEqual(hdr[:], b[:WALRunHeaderLen]) {
		t.Fatal("WALRunHeader and AppendWALRecord disagree")
	}
}

// TestWALRunRejects pins that a well-framed run whose inside is wrong is
// corrupt, not decoded: the bad runs above, and a run past the size bound
// (a complete frame: a short one would only be partial).
func TestWALRunRejects(t *testing.T) {
	over := make([]byte, walRunHeader+(MaxWALRunReadings+1)*FrameRecordLen)
	over[0] = WALRun
	for i, b := range append(badRuns(), walFrame(over)) {
		if _, n, err := DecodeWALRecord(b); !errors.Is(err, ErrFrameCorrupt) || n != 0 {
			t.Errorf("bad run %d: consumed %d, err = %v, want ErrFrameCorrupt", i, n, err)
		}
	}
	largest := make([]byte, MaxWALRunReadings*FrameRecordLen)
	if rec, _, err := DecodeWALRecord(AppendWALRecord(nil, WALRecord{Kind: WALRun, Run: largest})); err != nil || len(rec.Run) != len(largest) {
		t.Errorf("largest run: %d record bytes, err = %v", len(rec.Run), err)
	}
}

// TestWALRecordBounds pins the decoder's per-kind limits at their edges: a
// payload one byte past its kind's bound, a pattern key one byte past
// MaxAlertPatternKey, a value list that does not fill the alert's payload
// and trailing bytes behind a departure's fields are corrupt; a record at
// each bound decodes.
func TestWALRecordBounds(t *testing.T) {
	padded := func(kind byte, n int) []byte { // a kind byte and n-1 bytes of one-byte fields
		return walFrame(append([]byte{kind}, make([]byte, n-1)...))
	}
	alert := func(key int, values []float64) []byte {
		return AppendWALRecord(nil, WALRecord{Kind: WALAlert, Pattern: string(make([]byte, key)), Values: values})
	}
	depart := AppendWALRecord(nil, WALRecord{Kind: WALDepart, Object: 7, To: 1, At: 600})
	for name, b := range map[string][]byte{
		"departure past MaxWALPayload":        padded(WALDepart, MaxWALPayload+1),
		"alert past MaxWALAlertPayload":       padded(WALAlert, MaxWALAlertPayload+1),
		"migration past its bound":            padded(WALMigration, MaxWALMigrationPayload+1),
		"pattern key past MaxAlertPatternKey": alert(MaxAlertPatternKey+1, nil),
		"alert values short of the payload":   walFrame(append(alert(0, []float64{1})[walFrameHeader:], 0)),
		"departure with a trailing byte":      walFrame(append(bytes.Clone(depart[walFrameHeader:]), 0)),
		"departure with a truncated field":    walFrame(depart[walFrameHeader : len(depart)-1]),
	} {
		if _, n, err := DecodeWALRecord(b); !errors.Is(err, ErrFrameCorrupt) || n != 0 {
			t.Errorf("%s: consumed %d, err = %v, want ErrFrameCorrupt", name, n, err)
		}
	}
	for name, b := range map[string][]byte{
		"pattern key at MaxAlertPatternKey": alert(MaxAlertPatternKey, []float64{1, 2}),
		"migration at its bound":            padded(WALMigration, MaxWALMigrationPayload),
	} {
		if _, n, err := DecodeWALRecord(b); err != nil || n != len(b) {
			t.Errorf("%s: consumed %d of %d, err = %v", name, n, len(b), err)
		}
	}
}

// TestWALRoundTrip pins encode -> decode identity for a stream of mixed
// records, including the consumed-byte accounting ScanWAL depends on.
func TestWALRoundTrip(t *testing.T) {
	samples := walSamples()
	var buf []byte
	for _, rec := range samples {
		buf = AppendWALRecord(buf, rec)
	}
	var got []WALRecord
	valid, err := ScanWAL(buf, func(rec WALRecord) error {
		got = append(got, rec)
		return nil
	})
	if err != nil {
		t.Fatalf("ScanWAL: %v", err)
	}
	if valid != len(buf) {
		t.Fatalf("ScanWAL consumed %d of %d bytes", valid, len(buf))
	}
	if !reflect.DeepEqual(got, samples) {
		t.Fatalf("round trip diverged:\n got %+v\nwant %+v", got, samples)
	}
}

// TestWALTornTail pins the crash-recovery contract: a log truncated at any
// byte offset scans cleanly — every record before the cut decodes, the cut
// frame reports ErrFramePartial, and the truncation point is exactly the end
// of the last whole record.
func TestWALTornTail(t *testing.T) {
	samples := walSamples()
	var buf []byte
	var ends []int // offset after each record
	for _, rec := range samples {
		buf = AppendWALRecord(buf, rec)
		ends = append(ends, len(buf))
	}
	for cut := 0; cut < len(buf); cut++ {
		count := 0
		valid, err := ScanWAL(buf[:cut], func(WALRecord) error { count++; return nil })
		wantCount := 0
		for _, e := range ends {
			if e <= cut {
				wantCount++
			}
		}
		wantValid := 0
		if wantCount > 0 {
			wantValid = ends[wantCount-1]
		}
		if count != wantCount || valid != wantValid {
			t.Fatalf("cut at %d: scanned %d records through offset %d, want %d through %d",
				cut, count, valid, wantCount, wantValid)
		}
		if valid != cut && !errors.Is(err, ErrFramePartial) {
			t.Fatalf("cut at %d: err = %v, want ErrFramePartial", cut, err)
		}
	}
}

// TestWALCorruption pins that bit rot inside a complete frame is detected
// as ErrFrameCorrupt, never decoded as a different record silently... except
// inside the CRC's own collision space, which a single flipped bit never
// reaches.
func TestWALCorruption(t *testing.T) {
	rec := WALRecord{Kind: WALReading, Site: 2, T: 600, Tag: 17, Mask: 5}
	clean := AppendWALRecord(nil, rec)
	for i := range clean {
		dirty := append([]byte(nil), clean...)
		dirty[i] ^= 0x40
		_, _, err := DecodeWALRecord(dirty)
		if err == nil {
			// Flipping a length byte can turn the frame into a partial one
			// only; a silent successful decode of different bytes is the
			// failure mode this test exists for.
			got, _, _ := DecodeWALRecord(dirty)
			if !reflect.DeepEqual(got, rec) {
				t.Fatalf("flipped byte %d decoded silently as %+v", i, got)
			}
			continue
		}
		if !errors.Is(err, ErrFrameCorrupt) && !errors.Is(err, ErrFramePartial) {
			t.Fatalf("flipped byte %d: err = %v, want ErrFrameCorrupt or ErrFramePartial", i, err)
		}
	}
}

// FuzzDecodeWALRecord hardens the log decoder against arbitrary bytes: it
// must never panic, never allocate from an untrusted length, and every
// accepted record must re-encode to a frame that decodes to the same
// record (the round-trip invariant recovery relies on when it rewrites a
// truncated tail).
func FuzzDecodeWALRecord(f *testing.F) {
	for _, rec := range walSamples() {
		f.Add(AppendWALRecord(nil, rec))
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add(AppendWALRecord(nil, WALRecord{Kind: 99}))
	for _, b := range badRuns() {
		f.Add(b)
	}
	// A run at a misaligned offset (behind a 13-byte departure record), and
	// the head of a run declaring more than the size bound.
	f.Add(AppendWALRecord(AppendWALRecord(nil, WALRecord{Kind: WALDepart, Object: 7, To: 1, At: 600}),
		WALRecord{Kind: WALRun, Site: 1, Run: runBytes(2)}))
	f.Add(binary.LittleEndian.AppendUint32(nil, maxWALRunPayload+FrameRecordLen))
	f.Fuzz(func(t *testing.T, b []byte) {
		rec, n, err := DecodeWALRecord(b)
		if err != nil {
			if n != 0 {
				t.Fatalf("error %v consumed %d bytes", err, n)
			}
			if !errors.Is(err, ErrFramePartial) && !errors.Is(err, ErrFrameCorrupt) {
				t.Fatalf("unexpected error class: %v", err)
			}
			return
		}
		if n < walFrameHeader || n > len(b) {
			t.Fatalf("consumed %d bytes of %d", n, len(b))
		}
		again, m, err := DecodeWALRecord(AppendWALRecord(nil, rec))
		if err != nil {
			t.Fatalf("re-encode failed to decode: %v", err)
		}
		if !reflect.DeepEqual(again, rec) || m == 0 {
			t.Fatalf("re-encode round trip diverged: %+v vs %+v", again, rec)
		}
		// A scan over the full input must terminate and stay panic-free.
		if _, err := ScanWAL(b, func(WALRecord) error { return nil }); err != nil &&
			!errors.Is(err, ErrFramePartial) && !errors.Is(err, ErrFrameCorrupt) {
			t.Fatalf("ScanWAL error class: %v", err)
		}
	})
}

// TestAppendWALRecordAllocs pins that appending a departure, a migration or
// an alert into a buffer with room for it allocates nothing: the alert
// append runs under the serving scheduler's lock.
func TestAppendWALRecordAllocs(t *testing.T) {
	buf := make([]byte, 0, 1024)
	for _, rec := range []WALRecord{
		{Kind: WALDepart, Object: 7, From: 0, To: 1, At: 600},
		{Kind: WALMigration, Object: 9, From: 2, To: 0, At: 1200, Payload: []byte{0xde, 0xad, 0xbe, 0xef}},
		{Kind: WALAlert, Site: 1, Tag: 41, T: 120, At: 600, Pattern: "cold-chain", Values: []float64{1.5, -2.25}},
	} {
		if n := testing.AllocsPerRun(100, func() { buf = AppendWALRecord(buf[:0], rec) }); n != 0 {
			t.Errorf("kind %d: %v allocations per append, want 0", rec.Kind, n)
		}
	}
}
