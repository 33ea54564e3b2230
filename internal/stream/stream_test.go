package stream

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"

	"rfidtrack/internal/model"
)

func collect(out *[]Tuple) Sink {
	return func(tu Tuple) { *out = append(*out, tu) }
}

func TestFilter(t *testing.T) {
	var out []Tuple
	f := &Filter{Pred: func(tu Tuple) bool { return tu.Temp > 10 }, Out: collect(&out)}
	f.Push(Tuple{Temp: 5})
	f.Push(Tuple{Temp: 15})
	f.Push(Tuple{Temp: 25})
	if len(out) != 2 || out[0].Temp != 15 {
		t.Fatalf("out = %v", out)
	}
}

func TestMap(t *testing.T) {
	var out []Tuple
	m := &Map{Fn: func(tu Tuple) Tuple { tu.Temp *= 2; return tu }, Out: collect(&out)}
	m.Push(Tuple{Temp: 3})
	if len(out) != 1 || out[0].Temp != 6 {
		t.Fatalf("out = %v", out)
	}
}

func TestRowsTableKeepsLatest(t *testing.T) {
	rt := NewRowsTable(func(tu Tuple) int64 { return int64(tu.Sensor) })
	rt.Push(Tuple{Sensor: 1, Temp: 10, T: 1})
	rt.Push(Tuple{Sensor: 1, Temp: 20, T: 2})
	rt.Push(Tuple{Sensor: 2, Temp: 30, T: 2})
	if rt.Len() != 2 {
		t.Fatalf("len = %d", rt.Len())
	}
	if tu, ok := rt.Lookup(1); !ok || tu.Temp != 20 {
		t.Fatalf("lookup(1) = %v %v", tu, ok)
	}
	if _, ok := rt.Lookup(9); ok {
		t.Fatal("lookup(9) found phantom row")
	}
}

func TestLookupJoin(t *testing.T) {
	table := NewRowsTable(func(tu Tuple) int64 { return int64(tu.Loc) })
	table.Push(Tuple{Loc: 2, Sensor: 2, Temp: 21})
	var out []Tuple
	join := &LookupJoin{
		Table: table,
		Key:   func(tu Tuple) int64 { return int64(tu.Loc) },
		Combine: func(probe, build Tuple) (Tuple, bool) {
			probe.Temp = build.Temp
			return probe, probe.Temp > 0
		},
		Out: collect(&out),
	}
	join.Push(Tuple{Tag: 7, Loc: 2}) // matches
	join.Push(Tuple{Tag: 8, Loc: 3}) // no build row
	if len(out) != 1 || out[0].Tag != 7 || out[0].Temp != 21 {
		t.Fatalf("out = %v", out)
	}
}

func TestTee(t *testing.T) {
	var a, b []Tuple
	tee := &Tee{Outs: []Sink{collect(&a), collect(&b)}}
	tee.Push(Tuple{Tag: 1})
	if len(a) != 1 || len(b) != 1 {
		t.Fatalf("a=%d b=%d", len(a), len(b))
	}
}

func TestSeqPatternFiresAfterDuration(t *testing.T) {
	var matches []Match
	p := NewSeqPattern(100, 0, func(m Match) { matches = append(matches, m) })
	for _, e := range []model.Epoch{0, 50, 99, 100} {
		p.Push(Tuple{Tag: 1, T: e, Temp: float64(e)})
	}
	if len(matches) != 0 {
		t.Fatalf("fired at span == duration: %v", matches)
	}
	p.Push(Tuple{Tag: 1, T: 101, Temp: 9})
	if len(matches) != 1 {
		t.Fatalf("matches = %d", len(matches))
	}
	m := matches[0]
	if m.Tag != 1 || m.First != 0 || m.Last != 101 || len(m.Values) != 5 {
		t.Fatalf("match = %+v", m)
	}
	// Fires at most once per episode.
	p.Push(Tuple{Tag: 1, T: 200})
	if len(matches) != 1 {
		t.Fatal("fired twice in one episode")
	}
}

func TestSeqPatternPartitions(t *testing.T) {
	var matches []Match
	p := NewSeqPattern(10, 0, func(m Match) { matches = append(matches, m) })
	p.Push(Tuple{Tag: 1, T: 0})
	p.Push(Tuple{Tag: 2, T: 5})
	p.Push(Tuple{Tag: 1, T: 11})
	if len(matches) != 1 || matches[0].Tag != 1 {
		t.Fatalf("matches = %v", matches)
	}
	if got := p.Partitions(); !reflect.DeepEqual(got, []model.TagID{1, 2}) {
		t.Fatalf("partitions = %v", got)
	}
}

func TestSeqPatternMaxGapResets(t *testing.T) {
	var matches []Match
	p := NewSeqPattern(100, 20, func(m Match) { matches = append(matches, m) })
	p.Push(Tuple{Tag: 1, T: 0})
	p.Push(Tuple{Tag: 1, T: 10})
	p.Push(Tuple{Tag: 1, T: 80})  // gap 70 > 20: episode restarts here
	p.Push(Tuple{Tag: 1, T: 150}) // gap 70: restarts again
	if len(matches) != 0 {
		t.Fatalf("matches = %v", matches)
	}
	st := p.State(1)
	if st.First != 150 {
		t.Fatalf("episode start = %d, want 150", st.First)
	}
}

func TestSeqPatternReset(t *testing.T) {
	var matches []Match
	p := NewSeqPattern(50, 0, func(m Match) { matches = append(matches, m) })
	p.Push(Tuple{Tag: 3, T: 0})
	p.Reset(3)
	p.Push(Tuple{Tag: 3, T: 60})
	p.Push(Tuple{Tag: 3, T: 70})
	if len(matches) != 0 {
		t.Fatalf("fired across a reset: %v", matches)
	}
}

func TestSeqStateMigration(t *testing.T) {
	p := NewSeqPattern(1000, 0, nil)
	p.Push(Tuple{Tag: 5, T: 10, Temp: 1.5})
	p.Push(Tuple{Tag: 5, T: 20, Temp: 2.5})
	st := p.State(5)

	var buf bytes.Buffer
	if err := EncodeState(&buf, st); err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeState(model.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*st, dec) {
		t.Fatalf("round trip: got %+v, want %+v", dec, *st)
	}

	q := NewSeqPattern(1000, 0, nil)
	q.SetState(5, dec)
	p.DropState(5)
	if p.State(5) != nil {
		t.Fatal("state not dropped")
	}
	var matches []Match
	q.OnMatch = func(m Match) { matches = append(matches, m) }
	q.Push(Tuple{Tag: 5, T: 1011, Temp: 3.5})
	if len(matches) != 1 {
		t.Fatalf("migrated episode did not complete: %v", matches)
	}
	if matches[0].First != 10 || len(matches[0].Values) != 3 {
		t.Fatalf("match = %+v", matches[0])
	}
}

func TestSeqStateRoundTripProperty(t *testing.T) {
	f := func(started, fired bool, first, last int32, values []float64) bool {
		st := SeqState{Started: started, Fired: fired,
			First: model.Epoch(first), Last: model.Epoch(last), Values: values}
		var buf bytes.Buffer
		if err := EncodeState(&buf, &st); err != nil {
			return false
		}
		dec, err := DecodeState(model.NewReader(buf.Bytes()))
		if err != nil {
			return false
		}
		if len(st.Values) == 0 && len(dec.Values) == 0 {
			dec.Values, st.Values = nil, nil
		}
		return reflect.DeepEqual(st, dec)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTupleAttrAndString(t *testing.T) {
	tu := Tuple{T: 5, Tag: 2, Loc: 3, Container: 4, Sensor: -1, Temp: 1.25}
	if tu.Attr("x") != "" {
		t.Error("nil attrs lookup")
	}
	tu.Attrs = map[string]string{"type": "frozen"}
	if tu.Attr("type") != "frozen" {
		t.Error("attr lookup")
	}
	if tu.String() == "" {
		t.Error("empty String()")
	}
}
