package wal

import (
	"bytes"
	"encoding/hex"
	"reflect"
	"testing"

	"rfidtrack/internal/dist"
	"rfidtrack/internal/model"
	"rfidtrack/internal/rfinfer"
	"rfidtrack/internal/stream"
	"rfidtrack/internal/trace"
)

// goldenEngineState is a hand-built engine snapshot with every section
// populated: an object with candidates, a critical region and history, a
// tagged container with a posterior, an untagged one without, and a
// detection. Slices are non-nil, as the decoder allocates them.
func goldenEngineState() rfinfer.EngineState {
	return rfinfer.EngineState{
		Now: 900, LastRun: 899, PrevRun: 599,
		Objects: []rfinfer.ObjectState{{
			Collapsed: rfinfer.CollapsedState{
				Object: 5, Container: 2,
				Candidates:    []model.TagID{1, 2},
				Weights:       []float64{-3.5, 0},
				DefaultWeight: -7.25,
			},
			CPStart: 120,
			CR:      struct{ From, To model.Epoch }{600, 660},
			Series:  model.Series{{T: 590, Mask: 1}, {T: 610, Mask: 3}},
		}},
		Containers: []rfinfer.ContainerState{
			{
				ID:     2,
				Series: model.Series{{T: 610, Mask: 2}, {T: 620, Mask: 2}},
				Post: rfinfer.PosteriorState{
					N:      2,
					Epochs: []model.Epoch{610, 620},
					Q:      []float64{0.25, 0.75, 1, 0},
					QBase:  []float64{-1.5, -2},
				},
			},
			{
				ID: 1, Untagged: true,
				Series: model.Series{},
				Post:   rfinfer.PosteriorState{Epochs: []model.Epoch{}, Q: []float64{}, QBase: []float64{}},
			},
		},
		Detections: []rfinfer.Detection{{Object: 5, At: 605, DetectedAt: 899, NewContainer: 2, Delta: 68.5}},
	}
}

// goldenCRState is a hand-built critical-region migration state: the
// object's collapsed weights plus two containers' histories.
func goldenCRState() rfinfer.CRState {
	st := rfinfer.CRState{
		Collapsed: goldenEngineState().Objects[0].Collapsed,
		ObjectHist: model.Series{
			{T: 590, Mask: 1}, {T: 610, Mask: 3},
		},
		ContHist: map[model.TagID]model.Series{
			2: {{T: 610, Mask: 2}},
			1: {{T: 595, Mask: 1}, {T: 700, Mask: 4}},
		},
	}
	st.CR.From, st.CR.To = 600, 660
	return st
}

// goldenSeqState is a hand-built query pattern partition state.
func goldenSeqState() stream.SeqState {
	return stream.SeqState{Started: true, Fired: true, First: 10, Last: 400, Values: []float64{1.5, -2.25}}
}

// goldenState is a hand-built snapshot with every section populated:
// engines, queries, alerts with a pattern key, buffered readings, pending
// departures and pending migrations.
func goldenState(t testing.TB) *State {
	var payload bytes.Buffer
	if err := rfinfer.EncodeCR(&payload, goldenCRState()); err != nil {
		t.Fatal(err)
	}
	st := &State{
		Boundary:   900,
		StreamTime: 905,
		Feed: dist.FeedState{
			Next:            900,
			Runs:            3,
			QueryStateBytes: 17,
			Links:           []dist.LinkCost{{From: 0, To: 1, Costs: dist.Costs{Bytes: 120, Messages: 3}}},
			Owner:           []int32{0, 1, 1, 0, 1, 0},
			Owned:           [][]model.TagID{{0, 3, 5}, {1, 2, 4}},
			Sites:           []dist.SiteStats{{Epochs: 3}, {Epochs: 3, MigrationsIn: 1, BytesIn: 120}},
		},
		Engines: []rfinfer.EngineState{goldenEngineState(), {
			Objects:    []rfinfer.ObjectState{},
			Containers: []rfinfer.ContainerState{},
			Detections: []rfinfer.Detection{},
		}},
		Queries: []QueryState{
			{
				Parts:   []QueryPartition{{Tag: 5, State: goldenSeqState()}},
				Matches: []stream.Match{{Tag: 5, First: 10, Last: 400, Values: []float64{1.5}}},
			},
			{Parts: []QueryPartition{}, Matches: []stream.Match{}},
		},
		Alerts: []Alert{
			{Site: 0, Tag: 5, First: 10, Last: 400, Values: []float64{1.5}, Pattern: "hot"},
			{Site: 1, Tag: 4, First: 20, Last: 30, Values: []float64{}},
		},
		Buffered:    [][]dist.Reading{{{T: 901, ID: 2, Mask: 3}, {T: 903, ID: 5, Mask: 1}}, {}},
		PendingDeps: []dist.Departure{{Object: 3, From: 1, To: 0, At: 902}},
		PendingMigs: []Migration{
			{D: dist.Departure{Object: 5, From: 0, To: 1, At: 899}, Payload: payload.Bytes()},
			{D: dist.Departure{Object: 4, From: 1, To: 0, At: 899}},
		},
		Shards:  []ShardCounters{{Received: 100, Late: 2}, {Received: 50}},
		Invalid: 4,
		Misc:    1,
	}
	st.Feed.Stats.Observed = 150
	st.Feed.Stats.Checkpoints = 3
	st.Feed.Stats.Phases = dist.PhaseNS{Ingest: 1000, Migrate: 2000, Infer: 3000, Tail: 400}
	return st
}

// goldenTrace is a hand-built two-tag reading stream.
func goldenTrace() *trace.Trace {
	return &trace.Trace{
		Epochs: 100,
		Tags: []trace.Tag{
			{ID: 0, Readings: model.Series{{T: 3, Mask: 1}, {T: 9, Mask: 5}, {T: 90, Mask: 2}}},
			{ID: 1, Readings: model.Series{{T: 0, Mask: 1 << 40}}},
		},
	}
}

// TestCodecGoldenBytes pins the exact bytes of the state codecs — the
// collapsed and critical-region migration states, the engine snapshot, a
// query pattern partition, the whole runtime snapshot and the centralized
// baseline's reading stream — for fixed hand-built values, so a peer, a
// standby or a data directory written by another release keeps decoding
// and Table 5's byte counts keep their meaning. The runtime snapshot also
// decodes back to the State it was built from.
func TestCodecGoldenBytes(t *testing.T) {
	encode := func(f func(*bytes.Buffer) error) string {
		t.Helper()
		var buf bytes.Buffer
		if err := f(&buf); err != nil {
			t.Fatal(err)
		}
		return hex.EncodeToString(buf.Bytes())
	}
	for _, tc := range []struct {
		name   string
		got    string
		golden string
	}{
		{"EncodeCollapsed", encode(func(b *bytes.Buffer) error {
			return rfinfer.EncodeCollapsed(b, goldenCRState().Collapsed)
		}), goldenCollapsedHex},
		{"EncodeCR", encode(func(b *bytes.Buffer) error {
			return rfinfer.EncodeCR(b, goldenCRState())
		}), goldenCRHex},
		{"EncodeEngineState", encode(func(b *bytes.Buffer) error {
			return rfinfer.EncodeEngineState(b, goldenEngineState())
		}), goldenEngineHex},
		{"stream.EncodeState", encode(func(b *bytes.Buffer) error {
			st := goldenSeqState()
			return stream.EncodeState(b, &st)
		}), goldenSeqHex},
		{"trace.EncodeReadings", encode(func(b *bytes.Buffer) error {
			return trace.EncodeReadings(b, goldenTrace(), nil)
		}), goldenReadingsHex},
		{"wal.EncodeState", encode(func(b *bytes.Buffer) error {
			enc, err := EncodeState(goldenState(t))
			b.Write(enc)
			return err
		}), goldenSnapshotHex},
	} {
		if tc.got != tc.golden {
			t.Errorf("%s encoded\n %s\nwant\n %s", tc.name, tc.got, tc.golden)
		}
	}

	raw, err := hex.DecodeString(goldenSnapshotHex)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeState(raw)
	if err != nil {
		t.Fatal(err)
	}
	if want := goldenState(t); !reflect.DeepEqual(got, want) {
		t.Fatalf("golden snapshot decoded\n %+v\nwant\n %+v", got, want)
	}
}

const (
	goldenCollapsedHex = "05040000000000001dc002010000000000000cc0020000000000000000"
	goldenCRHex        = "1d05040000000000001dc002010000000000000cc0020000000000000000b009a80a02ce04011403020102d3040169040201e20402"
	goldenEngineHex    = "01880e860eae090105040000000000001dc002010000000000000cc0020000000000000000f001b009a80a02ce0401140302020002e204020a020202c40914000000000000d03f000000000000e83f000000000000f03f0000000000000000000000000000f8bf00000000000000c001010000000105ba09860e040000000000205140"
	goldenSeqHex       = "030a90030280808080808080fc3f8080808080808081c001"
	goldenReadingsHex  = "01020003030106055102010100808080808020"
	goldenSnapshotHex  = "52464944534e41500400000056b5af36880e920e880e000000000622010001f001060600010100010001020300030503010204020600000000060200f00100ac0200000006d00fa01ff02ea006000000000201880e860eae090105040000000000001dc002010000000000000cc0020000000000000000f001b009a80a02ce0401140302020002e204020a020202c40914000000000000d03f000000000000e83f000000000000f03f0000000000000000000000000000f8bf00000000000000c001010000000105ba09860e0400000000002051400100000000000001020105030a90030280808080808080fc3f8080808080808081c001010514a00601000000000000f83f000002000514a00601000000000000f83f03686f740104283c000002028a0e02038e0e050100010301008c0e02c801046400080202050001860e351d05040000000000001dc002010000000000000cc0020000000000000000b009a80a02ce04011403020102d3040169040201e20402040100860e00"
)
