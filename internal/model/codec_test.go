package model

import (
	"math"
	"reflect"
	"testing"
)

// TestCodecRoundTrip writes one of every field and reads it back, then
// checks the Reader's refusals: a count above the bytes left, a count
// above MaxDecodeElems, a truncated float and a malformed varint each
// record an error, and the error sticks.
func TestCodecRoundTrip(t *testing.T) {
	var w Writer
	series := Series{{T: 3, Mask: 1}, {T: 900, Mask: 1 << 63}}
	w.Byte(7)
	w.Uvarint(math.MaxUint64)
	w.Varint(-5)
	w.F64(-0.125)
	w.Floats([]float64{1, math.Inf(-1)})
	w.Str("pattern")
	w.Series(series)

	r := NewReader(w)
	if b := r.Byte(); b != 7 {
		t.Errorf("Byte = %d", b)
	}
	if v := r.Uvarint(); v != math.MaxUint64 {
		t.Errorf("Uvarint = %d", v)
	}
	if v := r.Varint(); v != -5 {
		t.Errorf("Varint = %d", v)
	}
	if v := r.F64(); v != -0.125 {
		t.Errorf("F64 = %v", v)
	}
	if v := r.Floats("value"); !reflect.DeepEqual(v, []float64{1, math.Inf(-1)}) {
		t.Errorf("Floats = %v", v)
	}
	if v := r.Str("key"); v != "pattern" {
		t.Errorf("Str = %q", v)
	}
	if v := r.Series("reading"); !reflect.DeepEqual(v, series) {
		t.Errorf("Series = %v", v)
	}
	if r.Err() != nil || r.Len() != 0 {
		t.Fatalf("err %v, %d bytes left", r.Err(), r.Len())
	}

	for _, tc := range []struct {
		name string
		b    []byte
		read func(*Reader)
	}{
		{"count past the end", []byte{3, 1, 1}, func(r *Reader) { r.Count("thing") }},
		{"count past the limit", append([]byte{0x81, 0x80, 0x80, 0x08}, make([]byte, MaxDecodeElems+1)...),
			func(r *Reader) { r.Count("thing") }},
		{"truncated float", []byte{0, 0, 0}, func(r *Reader) { r.F64() }},
		{"malformed varint", []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}, func(r *Reader) { r.Uvarint() }},
		{"varint cut by the end", []byte{0x80}, func(r *Reader) { r.Varint() }},
	} {
		r := NewReader(tc.b)
		tc.read(r)
		err := r.Err()
		if err == nil {
			t.Errorf("%s: no error", tc.name)
		}
		if v := r.Uvarint(); v != 0 || r.Err() != err || r.Len() != 0 {
			t.Errorf("%s: error did not stick", tc.name)
		}
	}
}
