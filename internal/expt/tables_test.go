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
