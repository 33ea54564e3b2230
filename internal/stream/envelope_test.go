package stream

import (
	"errors"
	"reflect"
	"testing"
)

// The three network frame fuzz targets — FuzzDecodeBatchFrame,
// FuzzDecodeMigrationFrame and FuzzDecodeReplicationFrame — harden the
// RFB1, RFM1 and RFS1 decoders against arbitrary bytes. Each is seeded from
// its own codec's samples, and every input, from any of the three, goes
// through all three decoders via fuzzFrameDecoders: the decoders share one
// envelope, so bytes shaped for one codec probe the others' refusals too.

// FuzzDecodeBatchFrame seeds the shared frame property from RFB1 samples.
func FuzzDecodeBatchFrame(f *testing.F) {
	f.Add(buildFrame(frameSections()))
	f.Add(buildFrame([]frameSection{{0, nil}}))
	f.Add(buildFrame([]frameSection{{2, []frameRec{{T: -5, Tag: -7, Mask: 0}}}}))
	f.Add([]byte{})
	f.Add([]byte{'R', 'F', 'B', '1'})
	f.Add([]byte{'R', 'F', 'B', '1', 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0, 0, 0, 0})
	fuzzFrameDecoders(f)
}

// FuzzDecodeMigrationFrame seeds the shared frame property from RFM1
// samples.
func FuzzDecodeMigrationFrame(f *testing.F) {
	for _, mf := range migSamples() {
		f.Add(AppendMigrationFrame(nil, mf.Object, mf.From, mf.To, mf.At, mf.Payload))
	}
	f.Add([]byte{})
	f.Add([]byte("RFM1"))
	fuzzFrameDecoders(f)
}

// FuzzDecodeReplicationFrame seeds the shared frame property from RFS1
// samples, status frame included.
func FuzzDecodeReplicationFrame(f *testing.F) {
	for _, rf := range replSamples() {
		f.Add(AppendReplFrame(nil, rf.Kind, rf.Site, rf.Gen, rf.Off, rf.Payload))
	}
	f.Add(AppendReplStatus(nil, 1, 300, 4096))
	f.Add([]byte{})
	f.Add([]byte("RFS1"))
	fuzzFrameDecoders(f)
}

// fuzzFrameDecoders runs the frame property over every input. A decoder
// must never panic and never allocate from an untrusted length or count;
// a refusal consumes nothing and is ErrFramePartial or ErrFrameCorrupt; an
// accepted RFB1 frame re-encodes to a frame that decodes identically; and
// an accepted RFM1 or RFS1 frame re-encodes byte-identically, the property
// that lets a migration sender, or a follower after a torn connection,
// re-send without diverging.
func fuzzFrameDecoders(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		refused := func(codec string, n int, err error) bool {
			if err == nil {
				return false
			}
			if n != 0 {
				t.Fatalf("%s: error %v consumed %d bytes", codec, err, n)
			}
			if !errors.Is(err, ErrFramePartial) && !errors.Is(err, ErrFrameCorrupt) {
				t.Fatalf("%s: unexpected error class: %v", codec, err)
			}
			return true
		}

		if secs, n, err := decodeFrame(b); !refused("RFB1", n, err) {
			if n != len(b) {
				t.Fatalf("RFB1: consumed %d bytes of %d", n, len(b))
			}
			again, _, err := decodeFrame(buildFrame(secs))
			if err != nil || !reflect.DeepEqual(again, secs) {
				t.Fatalf("RFB1: re-encode decodes to %+v (%v), want %+v", again, err, secs)
			}
		}

		if mf, n, err := DecodeMigrationFrame(b); !refused("RFM1", n, err) {
			if n < migFrameHeaderLen+frameTrailerLen || n > len(b) {
				t.Fatalf("RFM1: consumed %d bytes of %d", n, len(b))
			}
			if again := AppendMigrationFrame(nil, mf.Object, mf.From, mf.To, mf.At, mf.Payload); !reflect.DeepEqual(again, b[:n]) {
				t.Fatalf("RFM1: re-encode diverged from accepted frame")
			}
		}

		if rf, n, err := DecodeReplFrame(b); !refused("RFS1", n, err) {
			if n < replFrameHeaderLen+frameTrailerLen || n > len(b) {
				t.Fatalf("RFS1: consumed %d bytes of %d", n, len(b))
			}
			if again := AppendReplFrame(nil, rf.Kind, rf.Site, rf.Gen, rf.Off, rf.Payload); !reflect.DeepEqual(again, b[:n]) {
				t.Fatalf("RFS1: re-encode diverged from accepted frame")
			}
		}
	})
}
