package expt

import (
	"slices"
	"testing"
)

// TestClusterScalingGolden pins the deterministic columns of the Cluster
// artifact at quick scale — containment error, migrations, migrated state —
// to what the table printed at commit 952c00b, when Replay was still the
// pipelined actor schedule. Every worker row must reproduce them; only the
// wall-time column may move.
func TestClusterScalingGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	tbl := ClusterScaling(QuickScale())
	if len(tbl.Rows) != 4 {
		t.Fatalf("got %d rows, want one per worker budget (4)", len(tbl.Rows))
	}
	want := []string{"0.89", "850", "76"} // cont %, migrations, state KB
	for _, row := range tbl.Rows {
		if got := row[2:]; !slices.Equal(got, want) {
			t.Errorf("workers=%s: deterministic columns = %v, want %v", row[0], got, want)
		}
	}
}

// TestPaperArtifactGoldens pins the exact cells of the paper artifacts the
// inference engine produces at quick scale — Figure 5(a) and 5(e)
// (containment / location error), Table 3 (change-detection F-measure,
// including the calibrated δ) and Table 5 (migration bytes) — to what they
// printed at commit 1e829c1, before the M-step started reading evidence
// cells off the posterior row. Inference work must reproduce the paper's
// numbers, not only its own previous output: a cell that moves here is a
// behaviour change, whatever the equivalence tests say.
func TestPaperArtifactGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	for _, g := range []struct {
		artifact func(Scale) Table
		want     [][]string
	}{
		{Figure5a, [][]string{
			{"0.6", "4.88", "4.88", "4.88", "7.92"},
			{"0.7", "1.54", "1.54", "1.54", "2.50"},
			{"0.8", "0.00", "0.00", "0.00", "0.42"},
			{"0.9", "0.00", "0.00", "0.00", "0.00"},
			{"1.0", "0.00", "0.00", "0.00", "0.00"},
		}},
		{Figure5e, [][]string{
			{"0.6", "18.62", "6.38", "6.38"},
			{"0.7", "13.22", "0.40", "0.40"},
			{"0.8", "12.16", "0.89", "0.91"},
			{"0.9", "11.93", "0.44", "0.49"},
			{"1.0", "11.58", "0.00", "0.62"},
		}},
		{Table3, [][]string{
			{"0.6", "27.9", "46.5", "50.8", "29.4", "18.8", "18.8", "18.8 (δ=202)"},
			{"0.7", "39.0", "59.0", "71.0", "78.4", "68.1", "12.9", "73.7 (δ=76)"},
			{"0.8", "28.2", "85.7", "88.9", "84.6", "82.4", "75.0", "88.9 (δ=50)"},
			{"0.9", "11.9", "70.8", "80.7", "83.6", "76.0", "73.5", "80.7 (δ=64)"},
		}},
		{Table5, [][]string{
			{"0.6", "138330", "0", "77558", "1.8x"},
			{"0.7", "134907", "0", "77594", "1.7x"},
			{"0.8", "127504", "0", "77553", "1.6x"},
			{"0.9", "114771", "0", "77554", "1.5x"},
		}},
	} {
		tbl := g.artifact(QuickScale())
		if len(tbl.Rows) != len(g.want) {
			t.Errorf("%s: %d rows, want %d", tbl.ID, len(tbl.Rows), len(g.want))
			continue
		}
		for i, row := range tbl.Rows {
			if !slices.Equal(row, g.want[i]) {
				t.Errorf("%s row %d = %q, want %q", tbl.ID, i, row, g.want[i])
			}
		}
	}
}
