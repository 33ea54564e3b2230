package trace

import (
	"compress/gzip"
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
	bw := model.NewWriter(w)
	bw.Uvarint(wireVersion)
	if tags == nil {
		tags = make([]model.TagID, len(tr.Tags))
		for i := range tags {
			tags[i] = model.TagID(i)
		}
	}
	bw.Uvarint(uint64(len(tags)))
	for _, id := range tags {
		bw.Uvarint(uint64(id))
		bw.Series(tr.Tags[id].Readings) // delta-encoded epochs
	}
	return bw.Err()
}

// DecodeReadings reverses EncodeReadings, returning per-tag series keyed by
// tag ID.
func DecodeReadings(b []byte) (map[model.TagID]model.Series, error) {
	r := model.NewReader(b)
	if v := r.Uvarint(); r.Err() == nil && v != wireVersion {
		return nil, fmt.Errorf("trace: unsupported wire version %d", v)
	}
	n := r.Count("tag")
	out := make(map[model.TagID]model.Series, model.DecodeCap(n))
	for range n {
		id := model.TagID(r.Uvarint())
		out[id] = r.Series("reading")
	}
	if err := r.Err(); err != nil {
		return nil, err
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
