package wal

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"hash/crc32"
	"testing"
)

// FuzzDecodeState hardens the snapshot decoder a standby runs on bytes a
// primary shipped: whatever the payload, DecodeState returns an error or a
// State, never panics or makes an absurd allocation. The harness rewrites
// the header CRC so inputs get past it to the field decoder. A State that
// decodes re-encodes to bytes that decode and re-encode to the same bytes.
func FuzzDecodeState(f *testing.F) {
	golden, err := EncodeState(goldenState(f))
	if err != nil {
		f.Fatal(err)
	}
	v3, err := hex.DecodeString(snapshotV3)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add(golden[:len(golden)/2])
	f.Add(v3)
	f.Add(append(golden[:16:16], 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01))

	f.Fuzz(func(t *testing.T, data []byte) {
		data = bytes.Clone(data)
		if len(data) >= 16 {
			binary.LittleEndian.PutUint32(data[12:16], crc32.ChecksumIEEE(data[16:]))
		}
		st, err := DecodeState(data)
		if err != nil {
			return
		}
		b1, err := EncodeState(st)
		if err != nil {
			t.Fatalf("re-encoding a decoded snapshot: %v", err)
		}
		st2, err := DecodeState(b1)
		if err != nil {
			t.Fatalf("decoding a re-encoded snapshot: %v", err)
		}
		b2, err := EncodeState(st2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1, b2) {
			t.Fatalf("re-encoding is not stable:\n %x\n %x", b1, b2)
		}
	})
}
