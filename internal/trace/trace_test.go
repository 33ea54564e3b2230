package trace

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"

	"rfidtrack/internal/model"
)

func buildTestTrace(t *testing.T) *Trace {
	t.Helper()
	rates, err := model.UniformReadRates(3, 0.8, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := &Trace{
		Epochs: 100,
		Readers: []Reader{
			{Loc: 0, Kind: ReaderEntry, Name: "entry"},
			{Loc: 1, Kind: ReaderBelt, Name: "belt"},
			{Loc: 2, Kind: ReaderExit, Name: "exit"},
		},
		Rates: rates,
		Tags: []Tag{
			{ID: 0, Kind: model.KindCase, Name: "c0"},
			{ID: 1, Kind: model.KindItem, Name: "i0"},
		},
	}
	tr.Tags[0].Readings.Add(1, 0)
	tr.Tags[0].Readings.Add(5, 1)
	tr.Tags[1].Readings.Add(5, 1)
	tr.Tags[1].Readings.Add(9, 2)
	tr.Tags[0].TrueLoc = []LocSpan{{From: 0, To: 4, Loc: 0}, {From: 4, To: 10, Loc: 1}}
	tr.Tags[1].TrueLoc = []LocSpan{{From: 0, To: 10, Loc: 0}}
	tr.Tags[1].TrueCont = []ContSpan{{From: 0, To: 10, Container: 0}}
	return tr
}

func TestTraceValidate(t *testing.T) {
	tr := buildTestTrace(t)
	if err := tr.Validate(); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
}

func TestValidateCatchesBadTraces(t *testing.T) {
	cases := []struct {
		name   string
		break_ func(*Trace)
	}{
		{"wrong id", func(tr *Trace) { tr.Tags[1].ID = 5 }},
		{"reading beyond epochs", func(tr *Trace) { tr.Tags[0].Readings.Add(200, 0) }},
		{"mask beyond readers", func(tr *Trace) { tr.Tags[0].Readings.Add(50, 7) }},
		{"overlapping loc spans", func(tr *Trace) {
			tr.Tags[0].TrueLoc = []LocSpan{{From: 0, To: 6, Loc: 0}, {From: 4, To: 8, Loc: 1}}
		}},
		{"empty cont span", func(tr *Trace) {
			tr.Tags[1].TrueCont = []ContSpan{{From: 5, To: 5, Container: 0}}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := buildTestTrace(t)
			tc.break_(tr)
			if err := tr.Validate(); err == nil {
				t.Error("invalid trace accepted")
			}
		})
	}
}

func TestTrueLocAndContAt(t *testing.T) {
	tr := buildTestTrace(t)
	tg := &tr.Tags[0]
	if got := tg.TrueLocAt(2); got != 0 {
		t.Errorf("TrueLocAt(2) = %d", got)
	}
	if got := tg.TrueLocAt(4); got != 1 {
		t.Errorf("TrueLocAt(4) = %d", got)
	}
	if got := tg.TrueLocAt(50); got != model.NoLoc {
		t.Errorf("TrueLocAt(50) = %d", got)
	}
	item := &tr.Tags[1]
	if got := item.TrueContAt(3); got != 0 {
		t.Errorf("TrueContAt(3) = %d", got)
	}
	if got := item.TrueContAt(20); got != -1 {
		t.Errorf("TrueContAt(20) = %d", got)
	}
}

func TestSetTrueLocTimeline(t *testing.T) {
	var tg Tag
	tg.SetTrueLoc(0, 2)
	tg.SetTrueLoc(10, 3)
	tg.SetTrueLoc(20, model.NoLoc)
	tg.SetTrueLoc(30, 2)
	tg.CloseAt(40)
	want := []LocSpan{{From: 0, To: 10, Loc: 2}, {From: 10, To: 20, Loc: 3}, {From: 30, To: 40, Loc: 2}}
	if !reflect.DeepEqual(tg.TrueLoc, want) {
		t.Errorf("timeline = %+v, want %+v", tg.TrueLoc, want)
	}
	if err := checkLocSpans(tg.TrueLoc); err != nil {
		t.Errorf("timeline invalid: %v", err)
	}
}

func TestKindSelectors(t *testing.T) {
	tr := buildTestTrace(t)
	if got := tr.Cases(); len(got) != 1 || got[0] != 0 {
		t.Errorf("Cases() = %v", got)
	}
	if got := tr.Items(); len(got) != 1 || got[0] != 1 {
		t.Errorf("Items() = %v", got)
	}
	if got := tr.Pallets(); len(got) != 0 {
		t.Errorf("Pallets() = %v", got)
	}
}

func TestEncodeDecodeReadings(t *testing.T) {
	tr := buildTestTrace(t)
	var buf bytes.Buffer
	if err := EncodeReadings(&buf, tr, nil); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeReadings(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr.Tags {
		if !reflect.DeepEqual(got[model.TagID(i)], tr.Tags[i].Readings) {
			t.Errorf("tag %d: got %v, want %v", i, got[model.TagID(i)], tr.Tags[i].Readings)
		}
	}
}

func TestEncodeDecodeRoundTripProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		tr := &Trace{
			Epochs:  1 << 14,
			Readers: []Reader{{Loc: 0}, {Loc: 1}, {Loc: 2}, {Loc: 3}},
			Tags:    []Tag{{ID: 0, Kind: model.KindItem}},
		}
		for _, v := range raw {
			tr.Tags[0].Readings.Add(model.Epoch(v), model.Loc(v%4))
		}
		var buf bytes.Buffer
		if err := EncodeReadings(&buf, tr, nil); err != nil {
			return false
		}
		got, err := DecodeReadings(buf.Bytes())
		if err != nil {
			return false
		}
		if len(tr.Tags[0].Readings) == 0 {
			return len(got[0]) == 0
		}
		return reflect.DeepEqual(got[0], tr.Tags[0].Readings)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSizesOrdering(t *testing.T) {
	tr := buildTestTrace(t)
	raw := EncodedSize(tr, nil)
	if raw <= 0 {
		t.Fatalf("raw size = %d", raw)
	}
	gz := GzipSize(tr, nil)
	if gz <= 0 {
		t.Fatalf("gzip size = %d", gz)
	}
	// Tiny payloads may grow under gzip; both must at least be sane.
	if raw > 1000 || gz > 1000 {
		t.Fatalf("sizes implausible: raw=%d gz=%d", raw, gz)
	}
}

func TestNumReadings(t *testing.T) {
	tr := buildTestTrace(t)
	if got := tr.NumReadings(); got != 4 {
		t.Errorf("NumReadings = %d, want 4", got)
	}
}

func TestDecodeReadingsBadVersion(t *testing.T) {
	if _, err := DecodeReadings([]byte{99}); err == nil {
		t.Error("bad version accepted")
	}
}
