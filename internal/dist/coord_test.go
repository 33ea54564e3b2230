package dist

import (
	"reflect"
	"testing"
)

// TestSiteMaps pins the default split and the parser's validation.
func TestSiteMaps(t *testing.T) {
	if got := DefaultSiteMap(4, 2); !reflect.DeepEqual(got, []int{0, 0, 1, 1}) {
		t.Errorf("DefaultSiteMap(4,2) = %v", got)
	}
	if got := DefaultSiteMap(3, 2); !reflect.DeepEqual(got, []int{0, 0, 1}) {
		t.Errorf("DefaultSiteMap(3,2) = %v", got)
	}
	if got, err := ParseSiteMap("0, 1,0", 3, 2); err != nil || !reflect.DeepEqual(got, []int{0, 1, 0}) {
		t.Errorf("ParseSiteMap = %v, %v", got, err)
	}
	for _, bad := range []struct {
		spec         string
		sites, peers int
	}{
		{"0,1", 3, 2},    // wrong arity
		{"0,2,1", 3, 2},  // peer out of range
		{"0,0,0", 3, 2},  // peer 1 owns nothing
		{"0,x,1", 3, 2},  // non-integer
		{"0,-1,1", 3, 2}, // negative peer
	} {
		if _, err := ParseSiteMap(bad.spec, bad.sites, bad.peers); err == nil {
			t.Errorf("ParseSiteMap(%q, %d, %d) accepted", bad.spec, bad.sites, bad.peers)
		}
	}
	owned := OwnedSites([]int{0, 1, 0}, 0)
	if !reflect.DeepEqual(owned, []bool{true, false, true}) {
		t.Errorf("OwnedSites = %v", owned)
	}
}

// TestMergeResults pins the cross-peer merge arithmetic: sums for scores
// and bytes, disjoint-link union, max for Runs and the baseline.
func TestMergeResults(t *testing.T) {
	a := Result{QueryStateBytes: 10, Runs: 3, CentralizedBytes: 100,
		Links: []LinkCost{{From: 0, To: 1, Costs: Costs{Bytes: 5, Messages: 1}}}}
	a.ContErr.Wrong, a.ContErr.Total = 1, 10
	b := Result{QueryStateBytes: 7, Runs: 3, CentralizedBytes: 100,
		Links: []LinkCost{{From: 1, To: 0, Costs: Costs{Bytes: 9, Messages: 2}}}}
	b.ContErr.Wrong, b.ContErr.Total = 2, 10
	got := MergeResults([]Result{a, b})
	if got.ContErr.Wrong != 3 || got.ContErr.Total != 20 {
		t.Errorf("merged ContErr = %+v", got.ContErr)
	}
	if got.QueryStateBytes != 17 || got.Runs != 3 || got.CentralizedBytes != 100 {
		t.Errorf("merged scalars: %+v", got)
	}
	if got.Costs.Bytes != 14 || got.Costs.Messages != 3 {
		t.Errorf("merged Costs = %+v", got.Costs)
	}
	wantLinks := []LinkCost{
		{From: 0, To: 1, Costs: Costs{Bytes: 5, Messages: 1}},
		{From: 1, To: 0, Costs: Costs{Bytes: 9, Messages: 2}},
	}
	if !reflect.DeepEqual(got.Links, wantLinks) {
		t.Errorf("merged Links = %+v", got.Links)
	}
}
