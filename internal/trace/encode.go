package trace

import (
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"

	"rfidtrack/internal/model"
)

// Wire format version for encoded traces and reading batches.
const wireVersion = 1

// EncodeReadings serializes the raw reading stream of the given tags as
// (epoch, tag, reader-mask) triples in epoch-major order — the exact payload
// a centralized deployment ships to the warehouse server. If tags is nil,
// all tags are encoded.
func EncodeReadings(w io.Writer, tr *Trace, tags []model.TagID) error {
	bw := newByteWriter(w)
	bw.uvarint(wireVersion)
	if tags == nil {
		tags = make([]model.TagID, len(tr.Tags))
		for i := range tags {
			tags[i] = model.TagID(i)
		}
	}
	bw.uvarint(uint64(len(tags)))
	for _, id := range tags {
		tg := &tr.Tags[id]
		bw.uvarint(uint64(id))
		bw.uvarint(uint64(len(tg.Readings)))
		var prev model.Epoch
		for _, rd := range tg.Readings {
			bw.uvarint(uint64(rd.T - prev)) // delta-encoded epochs
			prev = rd.T
			bw.uvarint(uint64(rd.Mask))
		}
	}
	return bw.err
}

// DecodeReadings reverses EncodeReadings, returning per-tag series keyed by
// tag ID.
func DecodeReadings(r io.Reader) (map[model.TagID]model.Series, error) {
	br := newByteReader(r)
	if v := br.uvarint(); v != wireVersion {
		if br.err != nil {
			return nil, br.err
		}
		return nil, fmt.Errorf("trace: unsupported wire version %d", v)
	}
	n := br.uvarint()
	if n > model.MaxDecodeElems {
		return nil, fmt.Errorf("trace: implausible tag count %d", n)
	}
	out := make(map[model.TagID]model.Series, model.DecodeCap(n))
	for i := uint64(0); i < n && br.err == nil; i++ {
		id := model.TagID(br.uvarint())
		cnt := br.uvarint()
		if cnt > model.MaxDecodeElems {
			return nil, fmt.Errorf("trace: implausible reading count %d for tag %d", cnt, id)
		}
		s := make(model.Series, 0, model.DecodeCap(cnt))
		var prev model.Epoch
		for j := uint64(0); j < cnt && br.err == nil; j++ {
			prev += model.Epoch(br.uvarint())
			s = append(s, model.Reading{T: prev, Mask: model.Mask(br.uvarint())})
		}
		out[id] = s
	}
	if br.err != nil {
		return nil, br.err
	}
	return out, nil
}

// EncodedSize returns the raw (uncompressed) wire size in bytes of the
// reading stream for the given tags.
func EncodedSize(tr *Trace, tags []model.TagID) int {
	var cw countWriter
	if err := EncodeReadings(&cw, tr, tags); err != nil {
		return 0
	}
	return cw.n
}

// GzipSize returns the gzip-compressed wire size in bytes of the reading
// stream for the given tags — the Table 5 accounting for the centralized
// baseline ("all raw data shipped with simple gzip compression"). Only
// the count is kept, never the compressed stream.
func GzipSize(tr *Trace, tags []model.TagID) int {
	var cw countWriter
	zw := gzip.NewWriter(&cw)
	if err := EncodeReadings(zw, tr, tags); err != nil {
		return 0
	}
	if err := zw.Close(); err != nil {
		return 0
	}
	return cw.n
}

type countWriter struct{ n int }

func (c *countWriter) Write(p []byte) (int, error) {
	c.n += len(p)
	return len(p), nil
}

// byteWriter accumulates varint writes with sticky errors.
type byteWriter struct {
	w   io.Writer
	buf [binary.MaxVarintLen64]byte
	err error
}

func newByteWriter(w io.Writer) *byteWriter { return &byteWriter{w: w} }

func (b *byteWriter) uvarint(v uint64) {
	if b.err != nil {
		return
	}
	n := binary.PutUvarint(b.buf[:], v)
	_, b.err = b.w.Write(b.buf[:n])
}

type byteReader struct {
	r   io.ByteReader
	err error
}

func newByteReader(r io.Reader) *byteReader {
	if br, ok := r.(io.ByteReader); ok {
		return &byteReader{r: br}
	}
	return &byteReader{r: &simpleByteReader{r: r}}
}

func (b *byteReader) uvarint() uint64 {
	if b.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(b.r)
	if err != nil {
		b.err = err
		return 0
	}
	return v
}

type simpleByteReader struct {
	r   io.Reader
	one [1]byte
}

func (s *simpleByteReader) ReadByte() (byte, error) {
	_, err := io.ReadFull(s.r, s.one[:])
	return s.one[0], err
}
