package model

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// MaxDecodeElems bounds element counts while decoding wire formats (trace
// reading streams, migrated inference state, snapshots), so corrupt or
// hostile input errors out instead of panicking the decoder with an absurd
// allocation. It is far above anything the encoders produce.
const MaxDecodeElems = 1 << 24

// DecodeCap clamps a decoded element count to a safe preallocation;
// decoding still appends past it when the data really is that long.
func DecodeCap(n int) int { return min(n, 4096) }

// Writer appends the fields every state format here is built from —
// varints, little-endian floats, length-prefixed float lists and strings,
// and reading series — to a byte slice. An encoder starts it from the
// caller's slice, Writer(dst), and returns it; appending cannot fail, so
// no encoder returns an error, and into a slice with room to spare none
// allocates.
type Writer []byte

// Byte appends one byte.
func (w *Writer) Byte(b byte) { *w = append(*w, b) }

// Uvarint appends v as an unsigned varint.
func (w *Writer) Uvarint(v uint64) { *w = binary.AppendUvarint(*w, v) }

// Varint appends v as a zig-zag varint.
func (w *Writer) Varint(v int64) { *w = binary.AppendVarint(*w, v) }

// F64 appends v's IEEE-754 bits as eight little-endian bytes.
func (w *Writer) F64(v float64) {
	*w = binary.LittleEndian.AppendUint64(*w, math.Float64bits(v))
}

// Floats appends len(vs) then each value as an F64.
func (w *Writer) Floats(vs []float64) {
	w.Uvarint(uint64(len(vs)))
	for _, v := range vs {
		w.F64(v)
	}
}

// Str appends len(s) then s's bytes.
func (w *Writer) Str(s string) {
	w.Uvarint(uint64(len(s)))
	*w = append(*w, s...)
}

// Series appends a reading series as its length followed by one
// (epoch delta from the previous reading, mask) varint pair per reading.
func (w *Writer) Series(s Series) {
	w.Uvarint(uint64(len(s)))
	var prev Epoch
	for _, rd := range s {
		w.Uvarint(uint64(rd.T - prev))
		prev = rd.T
		w.Uvarint(uint64(rd.Mask))
	}
}

// Reader decodes a Writer's fields from a byte slice. The first error
// sticks: it empties the Reader, later reads return zero values, and Err
// reports it.
type Reader struct {
	b   []byte
	err error
}

// NewReader returns a Reader over b.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Err returns the first decoding error.
func (r *Reader) Err() error { return r.err }

// Len returns the number of unread bytes.
func (r *Reader) Len() int { return len(r.b) }

// fail records err unless an error is already recorded.
func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.b = nil
}

// Bytes returns the next n bytes; they alias the input.
func (r *Reader) Bytes(n int) []byte {
	if uint(n) > uint(len(r.b)) {
		r.fail(io.ErrUnexpectedEOF)
		return nil
	}
	p := r.b[:n:n]
	r.b = r.b[n:]
	return p
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if p := r.Bytes(1); p != nil {
		return p[0]
	}
	return 0
}

var errVarint = errors.New("malformed varint")

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail(errVarint)
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Varint reads a zig-zag varint.
func (r *Reader) Varint() int64 {
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail(errVarint)
		return 0
	}
	r.b = r.b[n:]
	return v
}

// F64 reads a float written by Writer.F64.
func (r *Reader) F64() float64 {
	if p := r.Bytes(8); p != nil {
		return math.Float64frombits(binary.LittleEndian.Uint64(p))
	}
	return 0
}

// Count reads an element count and refuses one above MaxDecodeElems or
// above the unread byte count (every element takes at least a byte), with
// an error that names what is counted. A refused count reads as 0, so a
// loop over it ends at once and never sizes anything from corrupt bytes.
func (r *Reader) Count(what string) int {
	n := r.Uvarint()
	if n > MaxDecodeElems || n > uint64(len(r.b)) {
		r.fail(fmt.Errorf("implausible %s count %d", what, n))
		return 0
	}
	return int(n)
}

// Floats reads what Writer.Floats wrote.
func (r *Reader) Floats(what string) []float64 {
	n := r.Count(what)
	out := make([]float64, 0, DecodeCap(n))
	for range n {
		out = append(out, r.F64())
	}
	return out
}

// Str reads what Writer.Str wrote.
func (r *Reader) Str(what string) string { return string(r.Bytes(r.Count(what))) }

// Series reads what Writer.Series wrote.
func (r *Reader) Series(what string) Series {
	n := r.Count(what)
	s := make(Series, 0, DecodeCap(n))
	var prev Epoch
	for range n {
		prev += Epoch(r.Uvarint())
		s = append(s, Reading{T: prev, Mask: Mask(r.Uvarint())})
	}
	return s
}
