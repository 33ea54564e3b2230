package dist

import (
	"fmt"
	"reflect"
	"testing"
	"unsafe"

	"rfidtrack/internal/model"
	"rfidtrack/internal/rfinfer"
	"rfidtrack/internal/sim"
)

// objectState returns eng's exported snapshot entry for object id.
func objectState(t *testing.T, eng *rfinfer.Engine, id model.TagID) rfinfer.ObjectState {
	t.Helper()
	for _, os := range eng.ExportState().Objects {
		if os.Collapsed.Object == id {
			return os
		}
	}
	t.Fatalf("object %d is not registered", id)
	return rfinfer.ObjectState{}
}

// checkForgotten fails unless eng holds nothing of object id: no critical
// region, no containment estimate, and a snapshot entry with no readings,
// candidates, priors or change-point floor.
func checkForgotten(t *testing.T, eng *rfinfer.Engine, id model.TagID, what string) {
	t.Helper()
	if from, to := eng.CriticalRegion(id); from < to {
		t.Errorf("%s: object %d keeps critical region [%d,%d)", what, id, from, to)
	}
	if c := eng.Container(id); c != -1 {
		t.Errorf("%s: object %d keeps container %d", what, id, c)
	}
	os := objectState(t, eng, id)
	if len(os.Series) != 0 || len(os.Collapsed.Candidates) != 0 || os.Collapsed.DefaultWeight != 0 || os.CPStart != 0 {
		t.Errorf("%s: object %d keeps %d readings, %d candidates, default weight %g, change-point floor %d",
			what, id, len(os.Series), len(os.Collapsed.Candidates), os.Collapsed.DefaultWeight, os.CPStart)
	}
}

// usedAfter replays w under st through the checkpoint at index last,
// delivering every departure but those skip marks, and returns site s's
// StorageUsedBytes after that checkpoint and the snapshot of its engine.
func usedAfter(t *testing.T, w *sim.World, st Strategy, last, s int, skip func(Departure) bool) (int, rfinfer.EngineState) {
	t.Helper()
	const interval = model.Epoch(300)
	c := NewCluster(w, st, rfinfer.DefaultConfig())
	f, err := c.OpenFeed(interval)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for _, d := range c.Departures() {
		if !skip(d) {
			if err := f.Depart(d); err != nil {
				t.Fatal(err)
			}
		}
	}
	batches := worldIntervals(w, interval)
	due := make([][]Reading, len(batches))
	for k := 0; k <= last; k++ {
		for site := range due {
			due[site] = batches[site][k]
		}
		if err := f.AdvanceWith(due); err != nil {
			t.Fatal(err)
		}
	}
	return c.Engines[s].Stats().StorageUsedBytes, c.Engines[s].ExportState()
}

// TestSourceForgetsDeparted pins that migration moves inference state under
// every strategy, MigrateNone included: after the checkpoint that migrates
// an object, the source site holds nothing of it — no critical region, no
// containment estimate, no readings, candidates or priors — and it stays
// so while the object is away. And the history storage the source reports
// no longer counts the object: against a twin replay in which the first
// checkpoint's departures from a site never happen, the source uses at
// least the departed objects' readings less.
func TestSourceForgetsDeparted(t *testing.T) {
	w := feedWorld(t)
	const interval = model.Epoch(300)
	batches := worldIntervals(w, interval)
	for _, st := range []Strategy{MigrateNone, MigrateWeights, MigrateReadings, MigrateFull} {
		t.Run(st.String(), func(t *testing.T) {
			c := NewCluster(w, st, rfinfer.DefaultConfig())
			var moved []Departure
			c.Hooks.OnDepart = func(d Departure) { moved = append(moved, d) }
			f, err := c.OpenFeed(interval)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range c.Departures() {
				if err := f.Depart(d); err != nil {
					t.Fatal(err)
				}
			}
			away := map[Departure]bool{} // departed, not back at the source since
			firstK, firstFrom := -1, -1
			due := make([][]Reading, len(batches))
			for k := range batches[0] {
				for s := range due {
					due[s] = batches[s][k]
				}
				moved = moved[:0]
				if err := f.AdvanceWith(due); err != nil {
					t.Fatal(err)
				}
				for _, d := range moved {
					for a := range away {
						if a.Object == d.Object && a.From == d.To {
							delete(away, a)
						}
					}
					away[d] = true
					if firstK < 0 {
						firstK, firstFrom = k, d.From
					}
				}
				for d := range away {
					checkForgotten(t, c.Engines[d.From], d.Object,
						fmt.Sprintf("checkpoint %d, source %d of %+v", k, d.From, d))
				}
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			if firstK < 0 {
				t.Fatal("no departure migrated; the world is too small")
			}

			// The first migrating checkpoint's departures from firstFrom,
			// with and without them.
			leaves := func(d Departure) bool {
				return d.From == firstFrom && d.At < model.Epoch(firstK+1)*interval && d.At >= model.Epoch(firstK)*interval
			}
			used, _ := usedAfter(t, w, st, firstK, firstFrom, func(Departure) bool { return false })
			stayed, twin := usedAfter(t, w, st, firstK, firstFrom, leaves)
			kept := 0
			for _, os := range twin.Objects {
				for _, d := range c.Departures() {
					if d.Object == os.Collapsed.Object && leaves(d) {
						kept += len(os.Series) * int(unsafe.Sizeof(model.Reading{}))
					}
				}
			}
			if kept == 0 {
				t.Fatal("the departed objects held no readings at their source; the check is vacuous")
			}
			if used > stayed-kept {
				t.Errorf("source %d uses %d history bytes after the departures, %d with the objects kept; want at most %d (their %d bytes of readings gone)",
					firstFrom, used, stayed, stayed-kept, kept)
			}
		})
	}
}

// TestReturnStartsFromImport pins that an object coming back to a site it
// left starts there from the state it brings: on a two-site world, one item
// is sent 0 → 1 when it really leaves and, by hand, 1 → 0 one checkpoint
// later. Under MigrateNone and MigrateWeights the return imports no
// readings, so site 0 must hold none of the object's; under the
// readings-bearing strategies it may hold only readings site 1 exported.
func TestReturnStartsFromImport(t *testing.T) {
	w := testWorld(t)
	const interval = model.Epoch(300)
	var out Departure
	found := false
	for _, d := range WorldDepartures(w) {
		if d.From == 0 && d.To == 1 && d.At < w.Epochs-2*interval {
			out, found = d, true
			break
		}
	}
	if !found {
		t.Fatal("no 0 → 1 departure early enough in the world")
	}
	// out migrates at the checkpoint ending at outCkpt (index
	// outCkpt/interval - 1), and back, due at outCkpt, at the one after it.
	outCkpt := (out.At/interval + 1) * interval
	back := Departure{Object: out.Object, From: 1, To: 0, At: outCkpt}
	backK := int(outCkpt / interval)
	batches := worldIntervals(w, interval)

	for _, st := range []Strategy{MigrateNone, MigrateWeights, MigrateReadings, MigrateFull} {
		t.Run(st.String(), func(t *testing.T) {
			c := NewCluster(w, st, rfinfer.DefaultConfig())
			shipped := map[model.Reading]bool{}
			c.Hooks.OnDepart = func(d Departure) {
				if d != back || st == MigrateNone || st == MigrateWeights {
					return
				}
				exp, err := c.Engines[1].ExportCR(d.Object)
				if err != nil {
					t.Fatal(err)
				}
				for _, rd := range exp.ObjectHist {
					shipped[rd] = true
				}
			}
			f, err := c.OpenFeed(interval)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			for _, d := range []Departure{out, back} {
				if err := f.Depart(d); err != nil {
					t.Fatal(err)
				}
			}
			due := make([][]Reading, len(batches))
			for k := 0; k <= backK; k++ {
				for s := range due {
					due[s] = batches[s][k]
				}
				if err := f.AdvanceWith(due); err != nil {
					t.Fatal(err)
				}
			}
			for _, rd := range objectState(t, c.Engines[0], out.Object).Series {
				if !shipped[rd] {
					t.Fatalf("after the return, site 0 holds object %d's reading %+v, which site 1 did not export (it left site 0 at %d)",
						out.Object, rd, out.At)
				}
			}
		})
	}
}

// TestDecisionsMatchSequential holds the moved path to decisions, not error
// counts: on the paper_dense world with collapsed-weight migration, every
// site's whole containment relation after every checkpoint must be the same
// under Replay at 2 and 4 workers as under ReplaySequential.
func TestDecisionsMatchSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("replays the full paper_dense world three times")
	}
	w, err := sim.Generate(paperDenseConfig())
	if err != nil {
		t.Fatal(err)
	}
	const interval = model.Epoch(300)
	decisions := func(workers int) ([]map[model.TagID]model.TagID, Result) {
		c := NewCluster(w, MigrateWeights, rfinfer.DefaultConfig())
		c.Workers = workers
		var out []map[model.TagID]model.TagID
		c.Hooks.OnCheckpoint = func(_ int, eng *rfinfer.Engine, _ model.Epoch) {
			out = append(out, eng.Containment())
		}
		replay := c.Replay
		if workers == 1 {
			replay = c.ReplaySequential
		}
		res, err := replay(interval)
		if err != nil {
			t.Fatal(err)
		}
		return out, res
	}
	want, wantRes := decisions(1)
	if len(want) != len(w.Sites)*int(w.Epochs/interval) || wantRes.Costs.Messages == 0 {
		t.Fatalf("reference recorded %d site-checkpoints over %d migrations", len(want), wantRes.Costs.Messages)
	}
	for _, workers := range []int{2, 4} {
		got, res := decisions(workers)
		if !reflect.DeepEqual(res, wantRes) {
			t.Errorf("workers=%d: Result diverged\n got: %+v\nwant: %+v", workers, res, wantRes)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d site-checkpoints, want %d", workers, len(got), len(want))
		}
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("workers=%d: site %d at checkpoint %d decided differently from ReplaySequential",
					workers, i%len(w.Sites), i/len(w.Sites))
			}
		}
	}
}
