package dist

import (
	"testing"

	"rfidtrack/internal/model"
	"rfidtrack/internal/rfinfer"
	"rfidtrack/internal/sim"
)

func testWorld(t *testing.T) *sim.World {
	t.Helper()
	cfg := sim.DefaultConfig()
	cfg.Warehouses = 2
	cfg.PathLength = 2
	cfg.Epochs = 1500
	cfg.ItemsPerCase = 5
	cfg.RR = 0.85
	w, err := sim.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestClusterReplayStrategies(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	w := testWorld(t)
	costs := make(map[Strategy]Costs)
	for _, st := range []Strategy{MigrateNone, MigrateWeights, MigrateReadings, MigrateFull} {
		var res Result
		for _, workers := range []int{1, 2, 8} {
			cl := NewCluster(w, st, rfinfer.DefaultConfig())
			cl.Workers = workers
			var err error
			if res, err = cl.Replay(300); err != nil {
				t.Fatalf("%v: %v", st, err)
			}
			checkGolden(t, "strategies/"+st.String(), res)
		}
		costs[st] = res.Costs
		if res.Runs == 0 || res.ContErr.Total == 0 {
			t.Fatalf("%v: replay scored nothing: %+v", st, res)
		}
		if res.CentralizedBytes <= 0 {
			t.Fatalf("%v: centralized baseline empty", st)
		}
		if st == MigrateNone {
			if res.Costs.Bytes != 0 || res.Costs.Messages != 0 {
				t.Errorf("MigrateNone shipped %+v", res.Costs)
			}
		} else {
			if res.Costs.Messages == 0 || res.Costs.Bytes == 0 {
				t.Errorf("%v shipped nothing: %+v", st, res.Costs)
			}
		}
		// Collapsed weights are the Table 5 headline: far below shipping raw
		// readings. The readings-bearing strategies duplicate shared
		// candidate histories per object and need not beat the (gzip'd)
		// centralized baseline — that asymmetry is why collapse exists.
		if st == MigrateWeights && res.Costs.Bytes >= res.CentralizedBytes {
			t.Errorf("%v cost %d not below centralized %d", st, res.Costs.Bytes, res.CentralizedBytes)
		}
	}
	// Collapsed weights are the cheapest migrating strategy; full histories
	// the most expensive.
	if !(costs[MigrateWeights].Bytes < costs[MigrateReadings].Bytes) {
		t.Errorf("weights (%d B) not below readings (%d B)",
			costs[MigrateWeights].Bytes, costs[MigrateReadings].Bytes)
	}
	if !(costs[MigrateReadings].Bytes <= costs[MigrateFull].Bytes) {
		t.Errorf("readings (%d B) above full (%d B)",
			costs[MigrateReadings].Bytes, costs[MigrateFull].Bytes)
	}
}

func TestClusterHooksAndONS(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	w := testWorld(t)
	// Hooks fire on the goroutine driving the checkpoint at every pool
	// size, so the unsynchronized counters below are safe at Workers = 4.
	for _, workers := range []int{1, 4} {
		cl := NewCluster(w, MigrateWeights, rfinfer.DefaultConfig())
		cl.Workers = workers
		var departs []Departure
		checkpoints := 0
		cl.Hooks.OnDepart = func(d Departure) { departs = append(departs, d) }
		cl.Hooks.OnCheckpoint = func(site int, eng *rfinfer.Engine, evalAt model.Epoch) {
			checkpoints++
			if eng != cl.Engines[site] {
				t.Error("checkpoint hook got a foreign engine")
			}
		}
		res, err := cl.Replay(300)
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, "strategies/weights", res)
		if checkpoints != res.Runs*len(w.Sites) {
			t.Fatalf("workers=%d: %d checkpoint hooks fired, want %d", workers, checkpoints, res.Runs*len(w.Sites))
		}
		if len(departs) != res.Costs.Messages {
			t.Fatalf("workers=%d: %d departure hooks fired, want one per migration (%d)", workers, len(departs), res.Costs.Messages)
		}
		for _, d := range departs {
			if cl.ONSLookup(d.Object) != d.To {
				t.Errorf("ONS did not follow object %d to site %d", d.Object, d.To)
			}
		}
	}
}

func TestStrategyString(t *testing.T) {
	for st, want := range map[Strategy]string{
		MigrateNone: "none", MigrateWeights: "weights",
		MigrateReadings: "readings", MigrateFull: "full",
	} {
		if st.String() != want {
			t.Errorf("%d.String() = %q, want %q", st, st.String(), want)
		}
	}
}

// TestCentralizedBaselineResolvedOnce pins the baseline's two sources: the
// world's own readings by default, the Baseline hook when set — which is
// what lets a cluster over a sim.Layout world report the figure — and
// either one resolved once however many Results are taken.
func TestCentralizedBaselineResolvedOnce(t *testing.T) {
	w := testWorld(t)
	want := CentralizedBaseline(w)
	if want <= 0 {
		t.Fatalf("baseline of a world with readings = %d", want)
	}
	result := func(c *Cluster) Result {
		f, err := c.OpenFeed(300)
		if err != nil {
			t.Fatal(err)
		}
		f.Result()
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		return f.Result()
	}
	if got := result(NewCluster(w, MigrateNone, rfinfer.DefaultConfig())).CentralizedBytes; got != want {
		t.Errorf("CentralizedBytes = %d, want the world's baseline %d", got, want)
	}
	layout, err := sim.Layout(w.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCluster(layout, MigrateNone, rfinfer.DefaultConfig())
	calls := 0
	c.Baseline = func() int { calls++; return want }
	if got := result(c).CentralizedBytes; got != want || calls != 1 {
		t.Errorf("over a layout: CentralizedBytes = %d after %d Baseline calls, want %d after 1", got, calls, want)
	}
}
