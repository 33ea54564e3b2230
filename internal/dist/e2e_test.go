package dist

import (
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"rfidtrack/internal/metrics"
	"rfidtrack/internal/model"
	"rfidtrack/internal/rfinfer"
	"rfidtrack/internal/sim"
)

// scenario is one end-to-end world: a deployment flavor, a migration
// strategy, and optionally a continuous query running at every site.
type scenario struct {
	name     string
	cfg      sim.Config
	strategy Strategy
	interval model.Epoch
	// withQuery attaches a Q1-style cold-chain exposure query whose pattern
	// state migrates with departing objects.
	withQuery bool
}

// e2eScenarios are small but structurally diverse multi-site worlds:
// a three-warehouse supply chain (the paper's Section 5.3 deployment),
// a hospital-like two-site world with mobile readers and frequent
// misplacements, and a cold chain with a per-site monitoring query.
func e2eScenarios() []scenario {
	supply := sim.DefaultConfig()
	supply.Warehouses = 3
	supply.PathLength = 2
	supply.Epochs = 900
	supply.ItemsPerCase = 3
	supply.RR = 0.8

	hospital := sim.DefaultConfig()
	hospital.Warehouses = 2
	hospital.PathLength = 2
	hospital.Epochs = 900
	hospital.ItemsPerCase = 4
	hospital.RR = 0.75
	hospital.MobileShelves = true
	hospital.AnomalyEvery = 90

	coldchain := sim.DefaultConfig()
	coldchain.Warehouses = 3
	coldchain.PathLength = 3
	coldchain.Epochs = 1200
	coldchain.ItemsPerCase = 2
	coldchain.RR = 0.7

	return []scenario{
		{name: "supply-chain/weights", cfg: supply, strategy: MigrateWeights, interval: 300},
		{name: "hospital/readings", cfg: hospital, strategy: MigrateReadings, interval: 300},
		{name: "hospital/none", cfg: hospital, strategy: MigrateNone, interval: 300},
		{name: "cold-chain/full+query", cfg: coldchain, strategy: MigrateFull, interval: 300, withQuery: true},
	}
}

// replayGoldens pins each scenario's Result (CentralizedBytes aside, which
// no schedule touches) to what Replay returned at commit 952c00b — where
// Replay was still the pipelined actor schedule, an implementation
// independent of the Feed — recorded at workers 1, 2 and 8 (identical at
// all three) just before that schedule was deleted. The strategies/* rows
// are TestClusterReplayStrategies' world under each migration strategy.
// The Feed is now checked against these numbers instead of against a second
// implementation.
var replayGoldens = map[string]Result{
	"supply-chain/weights": {
		ContErr: metrics.Counts{Wrong: 0, Total: 420}, LocErr: metrics.Counts{Wrong: 12, Total: 420},
		Costs: Costs{Bytes: 2491, Messages: 30},
		Links: []LinkCost{{From: 0, To: 1, Costs: Costs{Bytes: 1245, Messages: 15}}, {From: 0, To: 2, Costs: Costs{Bytes: 1246, Messages: 15}}},
		Runs:  3,
	},
	"hospital/readings": {
		ContErr: metrics.Counts{Wrong: 36, Total: 556}, LocErr: metrics.Counts{Wrong: 215, Total: 556},
		Costs: Costs{Bytes: 107729, Messages: 40},
		Links: []LinkCost{{From: 0, To: 1, Costs: Costs{Bytes: 107729, Messages: 40}}},
		Runs:  3,
	},
	"hospital/none": {
		ContErr: metrics.Counts{Wrong: 51, Total: 556}, LocErr: metrics.Counts{Wrong: 215, Total: 556},
		Runs: 3,
	},
	"cold-chain/full+query": {
		ContErr: metrics.Counts{Wrong: 33, Total: 460}, LocErr: metrics.Counts{Wrong: 43, Total: 460},
		Costs:           Costs{Bytes: 199734, Messages: 70},
		Links:           []LinkCost{{From: 0, To: 1, Costs: Costs{Bytes: 115743, Messages: 40}}, {From: 0, To: 2, Costs: Costs{Bytes: 83991, Messages: 30}}},
		QueryStateBytes: 354,
		Runs:            4,
	},
	"strategies/none": {
		ContErr: metrics.Counts{Wrong: 198, Total: 1700}, LocErr: metrics.Counts{Wrong: 61, Total: 1700},
		Runs: 5,
	},
	"strategies/weights": {
		ContErr: metrics.Counts{Wrong: 10, Total: 1700}, LocErr: metrics.Counts{Wrong: 30, Total: 1700},
		Costs: Costs{Bytes: 26738, Messages: 300},
		Links: []LinkCost{{From: 0, To: 1, Costs: Costs{Bytes: 26738, Messages: 300}}},
		Runs:  5,
	},
	"strategies/readings": {
		ContErr: metrics.Counts{Wrong: 10, Total: 1700}, LocErr: metrics.Counts{Wrong: 30, Total: 1700},
		Costs: Costs{Bytes: 767170, Messages: 300},
		Links: []LinkCost{{From: 0, To: 1, Costs: Costs{Bytes: 767170, Messages: 300}}},
		Runs:  5,
	},
	"strategies/full": {
		ContErr: metrics.Counts{Wrong: 10, Total: 1700}, LocErr: metrics.Counts{Wrong: 30, Total: 1700},
		Costs: Costs{Bytes: 934147, Messages: 300},
		Links: []LinkCost{{From: 0, To: 1, Costs: Costs{Bytes: 934147, Messages: 300}}},
		Runs:  5,
	},
}

// checkGolden compares a Result with its pinned golden.
func checkGolden(t *testing.T, name string, got Result) {
	t.Helper()
	want, ok := replayGoldens[name]
	if !ok {
		t.Fatalf("no golden recorded for %q", name)
	}
	got.CentralizedBytes = 0
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: Result left its golden\n got: %+v\nwant: %+v", name, got, want)
	}
}

// alertSets collects every site's alerted tags in site order.
func alertSets(c *Cluster) []map[model.TagID]bool {
	if c.Query == nil {
		return nil
	}
	out := make([]map[model.TagID]bool, len(c.Engines))
	for s := range c.Engines {
		out[s] = c.SiteQuery(s).AlertedTags()
	}
	return out
}

// TestE2EClusterDeterminism is the end-to-end scenario harness: each world
// is replayed once through the single-goroutine sequential reference and
// then on pools of 1, 2, 8 and GOMAXPROCS workers. Every Result — error
// counts, per-link byte costs, query state bytes — and every site's alert
// set must be bit-identical to the reference, and the reference itself
// must reproduce the scenario's pinned golden.
func TestE2EClusterDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	workerCounts := []int{1, 2, 8, runtime.GOMAXPROCS(0)}
	for _, sc := range e2eScenarios() {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			w, err := sim.Generate(sc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			newCluster := func() *Cluster {
				cl := NewCluster(w, sc.strategy, rfinfer.DefaultConfig())
				if sc.withQuery {
					cl.Query = ColdChainQuery(w, sc.interval)
				}
				return cl
			}

			refCl := newCluster()
			ref, err := refCl.ReplaySequential(sc.interval)
			if err != nil {
				t.Fatal(err)
			}
			refAlerts := alertSets(refCl)
			checkGolden(t, sc.name, ref)
			if ref.Runs == 0 || ref.ContErr.Total == 0 {
				t.Fatalf("reference replay scored nothing: %+v", ref)
			}
			if sc.strategy != MigrateNone && len(ref.Links) == 0 {
				t.Fatalf("reference replay shipped no per-link traffic: %+v", ref)
			}
			if sc.withQuery {
				if ref.QueryStateBytes == 0 {
					t.Error("query scenario migrated no pattern state")
				}
				alerts := 0
				for _, m := range refAlerts {
					alerts += len(m)
				}
				if alerts == 0 {
					t.Error("query scenario raised no alerts")
				}
			}

			for _, workers := range workerCounts {
				t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
					cl := newCluster()
					cl.Workers = workers
					res, err := cl.Replay(sc.interval)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(res, ref) {
						t.Errorf("concurrent Result diverged from sequential reference\n got: %+v\nwant: %+v", res, ref)
					}
					if got := alertSets(cl); !reflect.DeepEqual(got, refAlerts) {
						t.Errorf("alert sets diverged\n got: %v\nwant: %v", tagSets(got), tagSets(refAlerts))
					}
					stats := cl.Stats()
					if len(stats.Sites) != len(w.Sites) {
						t.Fatalf("Stats() has %d sites, want %d", len(stats.Sites), len(w.Sites))
					}
					tot := stats.Totals()
					if tot.Epochs != ref.Runs*len(w.Sites) {
						t.Errorf("stats epochs = %d, want %d", tot.Epochs, ref.Runs*len(w.Sites))
					}
					if tot.MigrationsOut != tot.MigrationsIn {
						t.Errorf("migrations out %d != in %d", tot.MigrationsOut, tot.MigrationsIn)
					}
					if sc.strategy != MigrateNone && tot.BytesOut < ref.Costs.Bytes {
						t.Errorf("stats bytes out %d below accounted cost %d", tot.BytesOut, ref.Costs.Bytes)
					}
				})
			}
		})
	}
}

// tagSets renders alert sets compactly for failure messages.
func tagSets(sets []map[model.TagID]bool) [][]model.TagID {
	out := make([][]model.TagID, len(sets))
	for i, m := range sets {
		for id := range m {
			out[i] = append(out[i], id)
		}
		sort.Slice(out[i], func(a, b int) bool { return out[i][a] < out[i][b] })
	}
	return out
}

// TestReplayONSMatchesSequential checks that a parallel Replay leaves the
// naming service pointing at every object's final site, like the
// reference does.
func TestReplayONSMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	cfg := sim.DefaultConfig()
	cfg.Warehouses = 2
	cfg.PathLength = 2
	cfg.Epochs = 900
	cfg.ItemsPerCase = 3
	w, err := sim.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cl := NewCluster(w, MigrateWeights, rfinfer.DefaultConfig())
	if _, err := cl.Replay(300); err != nil {
		t.Fatal(err)
	}
	ref := NewCluster(w, MigrateWeights, rfinfer.DefaultConfig())
	if _, err := ref.ReplaySequential(300); err != nil {
		t.Fatal(err)
	}
	for id := 0; id < w.NumTags(); id++ {
		if got, want := cl.ONSLookup(model.TagID(id)), ref.ONSLookup(model.TagID(id)); got != want {
			t.Errorf("ONS owner of tag %d = %d, want %d", id, got, want)
		}
	}
}
