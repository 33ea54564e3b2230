package trace_test

import (
	"bytes"
	"compress/gzip"
	"testing"

	"rfidtrack/internal/dist"
	"rfidtrack/internal/model"
	"rfidtrack/internal/sim"
	"rfidtrack/internal/trace"
)

// bufferedGzipSize is the length of the gzip stream GzipSize describes, held
// in memory in full.
func bufferedGzipSize(t *testing.T, tr *trace.Trace, tags []model.TagID) int {
	t.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if err := trace.EncodeReadings(zw, tr, tags); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Len()
}

// TestGzipSizeMatchesBufferedOutput: on a generated world's site traces,
// GzipSize counts exactly the bytes a buffered gzip stream would hold — for
// every tag and for the case/item subset the centralized baseline ships —
// and the baseline is the sum of the latter.
func TestGzipSizeMatchesBufferedOutput(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Warehouses, cfg.PathLength = 2, 2
	cfg.Epochs = 900
	cfg.ItemsPerCase = 4
	w, err := sim.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for s, tr := range w.Sites {
		var shipped []model.TagID
		for i := range tr.Tags {
			if k := tr.Tags[i].Kind; k == model.KindCase || k == model.KindItem {
				shipped = append(shipped, tr.Tags[i].ID)
			}
		}
		for _, tags := range [][]model.TagID{nil, shipped} {
			if got, want := trace.GzipSize(tr, tags), bufferedGzipSize(t, tr, tags); got != want {
				t.Errorf("site %d (%d tags): GzipSize = %d, buffered gzip output is %d bytes", s, len(tags), got, want)
			}
		}
		total += bufferedGzipSize(t, tr, shipped)
	}
	if got := dist.CentralizedBaseline(w); got != total {
		t.Errorf("CentralizedBaseline = %d, buffered site streams total %d", got, total)
	}
}
