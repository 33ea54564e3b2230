package stream

import (
	"encoding/hex"
	"reflect"
	"testing"

	"rfidtrack/internal/model"
)

// TestFrameGoldenBytes pins the exact wire bytes of the three network
// frames — RFB1 ingest, RFM1 migration and RFS1 replication — so a peer or
// standby on an older release keeps interoperating. Each case encodes
// through the public encoder, compares against a hex literal, and decodes
// the literal back to the fields it was built from.
func TestFrameGoldenBytes(t *testing.T) {
	type rec struct {
		T    model.Epoch
		Tag  model.TagID
		Mask model.Mask
	}
	type section struct {
		Site int
		Recs []rec
	}

	t.Run("RFB1", func(t *testing.T) {
		// Three sections, the middle one empty, with extreme and negative
		// field values.
		want := []section{
			{0, []rec{{0, 0, 1}, {299, 41, 0b1011}}},
			{7, nil},
			{3, []rec{{1<<31 - 1, 1 << 20, ^model.Mask(0)}, {-5, -7, 0}}},
		}
		const golden = "524642316c00000003000000040000000000000002000000000000000000000001000000000000002b010000290000000b0000000000000007000000000000000300000002000000ffffff7f00001000fffffffffffffffffbfffffff9ffffff000000000000000063a40b05"

		var b FrameBuilder
		b.Reset()
		for _, s := range want {
			b.BeginSection(s.Site)
			for _, r := range s.Recs {
				b.Add(r.T, r.Tag, r.Mask)
			}
		}
		if got := hex.EncodeToString(b.Finish()); got != golden {
			t.Fatalf("encoded\n %s\nwant\n %s", got, golden)
		}

		raw, _ := hex.DecodeString(golden)
		var got []section
		n, err := DecodeBatchFrame(raw, func(s BatchSection) error {
			sec := section{Site: s.Site}
			for i := 0; i < s.Len(); i++ {
				ep, tag, mask := s.At(i)
				sec.Recs = append(sec.Recs, rec{ep, tag, mask})
			}
			got = append(got, sec)
			return nil
		})
		if err != nil || n != len(raw) {
			t.Fatalf("decode: n=%d err=%v, want %d nil", n, err, len(raw))
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("decoded %+v, want %+v", got, want)
		}
	})

	t.Run("RFM1", func(t *testing.T) {
		for _, tc := range []struct {
			mf     MigrationFrame
			golden string
		}{
			{MigrationFrame{Object: 41, From: 3, To: 0, At: 299},
				"52464d311c0000002900000003000000000000002b010000350c7a40"},
			{MigrationFrame{Object: 1 << 20, From: 14, To: 15, At: 1 << 29,
				Payload: []byte{0xde, 0xad, 0xbe, 0xef, 0, 1, 2}},
				"52464d3123000000000010000e0000000f00000000000020deadbeef000102ec32ecb7"},
		} {
			mf := tc.mf
			if got := hex.EncodeToString(AppendMigrationFrame(nil, mf.Object, mf.From, mf.To, mf.At, mf.Payload)); got != tc.golden {
				t.Fatalf("%+v encoded\n %s\nwant\n %s", mf, got, tc.golden)
			}
			raw, _ := hex.DecodeString(tc.golden)
			got, n, err := DecodeMigrationFrame(raw)
			if err != nil || n != len(raw) || !reflect.DeepEqual(got, mf) {
				t.Fatalf("decode %s: %+v n=%d err=%v, want %+v", tc.golden, got, n, err, mf)
			}
		}
	})

	t.Run("RFS1", func(t *testing.T) {
		status := AppendReplStatus(nil, 4, 900, 1<<40)
		for _, tc := range []struct {
			rf     ReplFrame
			frame  []byte
			golden string
		}{
			{ReplFrame{Kind: ReplSegment, Site: -2, Gen: 7, Off: 1 << 20, Payload: []byte{0xde, 0xad, 0xbe, 0xef}},
				nil, "524653312400000001000000feffffff070000000000100000000000deadbeefc3da5db9"},
			{ReplFrame{Kind: ReplSnapshot, Site: 1, Gen: 900, Off: 4096, Payload: []byte{9, 9, 9}},
				nil, "5246533123000000020000000100000084030000001000000000000009090929a32516"},
			{ReplFrame{Kind: ReplManifest, Site: 1, Gen: 3, Off: 900},
				nil, "52465331200000000300000001000000030000008403000000000000d94d4709"},
			{ReplFrame{Kind: ReplTruncate, Site: 2, Gen: 5, Off: 128},
				nil, "524653312000000004000000020000000500000080000000000000008ce448a0"},
			{ReplFrame{Kind: ReplStatus, Off: 4,
				Payload: []byte{0x84, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0}},
				status, "5246533130000000050000000000000000000000040000000000000084030000000000000000000000010000ad297981"},
		} {
			rf := tc.rf
			frame := tc.frame
			if frame == nil {
				frame = AppendReplFrame(nil, rf.Kind, rf.Site, rf.Gen, rf.Off, rf.Payload)
			}
			if got := hex.EncodeToString(frame); got != tc.golden {
				t.Fatalf("kind %d encoded\n %s\nwant\n %s", rf.Kind, got, tc.golden)
			}
			raw, _ := hex.DecodeString(tc.golden)
			got, n, err := DecodeReplFrame(raw)
			if err != nil || n != len(raw) || !reflect.DeepEqual(got, rf) {
				t.Fatalf("decode %s: %+v n=%d err=%v, want %+v", tc.golden, got, n, err, rf)
			}
		}
		rf, _, _ := DecodeReplFrame(status)
		if fence, st, app := DecodeReplStatus(rf); fence != 4 || st != 900 || app != 1<<40 {
			t.Fatalf("DecodeReplStatus = %d %d %d, want 4 900 %d", fence, st, app, int64(1)<<40)
		}
	})
}

// TestWALGoldenBytes pins the exact bytes of the write-ahead-log records a
// data directory holds — a reading run, a departure, a migration with a
// payload, and an alert with and without values — so a directory written
// by one release replays under the next. Each case encodes through
// AppendWALRecord, compares against a hex literal, and decodes the literal
// back to the record it was built from.
func TestWALGoldenBytes(t *testing.T) {
	// The run's two records, as the RFB1 golden above carries them.
	run, _ := hex.DecodeString("2b010000290000000b00000000000000" + "fbfffffff9ffffff0000000000000000")
	var fb FrameBuilder
	fb.BeginSection(2)
	fb.Add(299, 41, 0b1011)
	fb.Add(-5, -7, 0)
	if frame := fb.Finish(); !reflect.DeepEqual(frame[frameHeaderLen+frameSectionLen:len(frame)-frameTrailerLen], run) {
		t.Fatal("a run's records are not the frame section's records")
	}
	for _, tc := range []struct {
		name   string
		rec    WALRecord
		golden string
	}{
		{"run", WALRecord{Kind: WALRun, Site: 2, Run: run},
			"28000000340d336505000000020000002b010000290000000b00000000000000fbfffffff9ffffff0000000000000000"},
		{"departure", WALRecord{Kind: WALDepart, Object: 1 << 20, From: -1, To: 15, At: 1 << 29},
			"0f00000012a74e9702808040ffffffff0f0f8080808002"},
		{"migration", WALRecord{Kind: WALMigration, Object: 41, From: 3, To: 0, At: 299,
			Payload: []byte{0xde, 0xad, 0xbe, 0xef, 0, 1, 2}},
			"0d000000367b900203290300ab02deadbeef000102"},
		{"alert", WALRecord{Kind: WALAlert, Site: 3, Tag: 1 << 20, T: 120, At: 1 << 29,
			Pattern: "cold-chain", Values: []float64{1.5, -2.25, 1e9}},
			"2f000000a655e87b04038080407880808080020a636f6c642d636861696e03000000000000f83f00000000000002c00000000065cdcd41"},
		{"alert without values", WALRecord{Kind: WALAlert, Site: 0, Tag: 41, T: 0, At: 299},
			"0800000007cf255804002900ab020000"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := hex.EncodeToString(AppendWALRecord(nil, tc.rec)); got != tc.golden {
				t.Fatalf("encoded\n %s\nwant\n %s", got, tc.golden)
			}
			raw, _ := hex.DecodeString(tc.golden)
			got, n, err := DecodeWALRecord(raw)
			if err != nil || n != len(raw) || !reflect.DeepEqual(got, tc.rec) {
				t.Fatalf("decode: %+v n=%d err=%v, want %+v", got, n, err, tc.rec)
			}
		})
	}
}
