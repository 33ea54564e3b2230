package dist

import (
	"reflect"
	"testing"

	"rfidtrack/internal/model"
	"rfidtrack/internal/trace"
)

// TestIntervals pins the interval cut every replay driver feeds checkpoints
// from, on a hand-built trace at Δ=10 over 35 epochs: a reading at k·Δ lands
// in batch k and one at k·Δ−1 in batch k−1; the trailing partial interval
// [30,35) and the pallet's readings are dropped; each batch is in (epoch,
// tag) order, not the tag-by-tag order the trace stores; and a trace
// shorter than one interval gives no batches.
func TestIntervals(t *testing.T) {
	tr := &trace.Trace{Epochs: 35, Tags: []trace.Tag{
		{ID: 0, Kind: model.KindPallet, Readings: model.Series{{T: 5, Mask: 1}, {T: 15, Mask: 1}}},
		{ID: 1, Kind: model.KindCase, Readings: model.Series{{T: 9, Mask: 1}, {T: 10, Mask: 2}, {T: 20, Mask: 3}, {T: 31, Mask: 1}}},
		{ID: 2, Kind: model.KindItem, Readings: model.Series{{T: 0, Mask: 4}, {T: 9, Mask: 5}, {T: 19, Mask: 6}, {T: 29, Mask: 7}, {T: 30, Mask: 1}}},
		{ID: 3, Kind: model.KindItem, Readings: model.Series{{T: 9, Mask: 8}, {T: 10, Mask: 9}}},
	}}
	want := [][]Reading{
		{{T: 0, ID: 2, Mask: 4}, {T: 9, ID: 1, Mask: 1}, {T: 9, ID: 2, Mask: 5}, {T: 9, ID: 3, Mask: 8}},
		{{T: 10, ID: 1, Mask: 2}, {T: 10, ID: 3, Mask: 9}, {T: 19, ID: 2, Mask: 6}},
		{{T: 20, ID: 1, Mask: 3}, {T: 29, ID: 2, Mask: 7}},
	}
	if got := Intervals(tr, 10); !reflect.DeepEqual(got, want) {
		t.Errorf("Intervals(Δ=10) =\n %v\nwant\n %v", got, want)
	}

	tr.Epochs = 9
	if got := Intervals(tr, 10); len(got) != 0 {
		t.Errorf("Intervals of a 9-epoch trace at Δ=10 = %v, want no batches", got)
	}

	for _, iv := range []model.Epoch{0, -10} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Intervals(Δ=%d) did not panic", iv)
				}
			}()
			Intervals(tr, iv)
		}()
	}
}
