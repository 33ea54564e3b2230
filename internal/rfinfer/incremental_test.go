package rfinfer

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"rfidtrack/internal/model"
)

// TestIncrementalMatchesFresh is the incremental-checkpoint equivalence
// proof: an engine with every between-Run carry-forward path enabled must
// produce bit-identical output to a reference engine with them all disabled
// (noCarry), over randomized bursty workloads — most groups idle at most
// checkpoints, the incremental path's best case and its most dangerous
// invalidation surface — across truncation strategies, change-point
// detection, mid-stream migration imports, and worker counts.
func TestIncrementalMatchesFresh(t *testing.T) {
	lik := testLik(t)
	cfgs := []struct {
		name string
		cfg  Config
	}{
		{"default-cr", DefaultConfig()},
		{"detect-full", changeConfig()},
		{"window", func() Config {
			c := DefaultConfig()
			c.Truncation = TruncateWindow
			c.FixedWindow = 250
			return c
		}()},
		{"none-detect", func() Config {
			c := changeConfig()
			c.Truncation = TruncateNone
			return c
		}()},
	}
	for _, tc := range cfgs {
		for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
			for seed := uint64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("%s/w%d/seed%d", tc.name, workers, seed), func(t *testing.T) {
					cfg := tc.cfg
					cfg.Workers = workers
					runBurstyPair(t, lik, cfg, seed)
				})
			}
		}
	}
}

// runBurstyPair drives one incremental/reference engine pair through a
// bursty multi-checkpoint workload and compares them after every Run.
func runBurstyPair(t *testing.T, lik *model.Likelihood, cfg Config, seed uint64) {
	t.Helper()
	inc := New(lik, cfg)
	ref := New(lik, cfg)
	ref.noCarry = true
	engines := []*Engine{inc, ref}

	const (
		groups   = 6
		perGroup = 3
		interval = 100
		ckpts    = 12
	)
	for _, e := range engines {
		for g := 0; g < groups; g++ {
			e.RegisterContainer(model.TagID(100 + g))
		}
		for o := 0; o < groups*perGroup; o++ {
			e.RegisterObject(model.TagID(o))
		}
	}

	rng := rand.New(rand.NewPCG(seed, 99))
	// The mask is drawn once and fed to both engines, so their inputs are
	// identical sample paths.
	observe := func(ep model.Epoch, id model.TagID, at model.Loc) {
		var m model.Mask
		scan := lik.Schedule().ScanMask(ep)
		for scan != 0 {
			r := scan.First()
			if rng.Float64() < lik.Rates().Prob(r, at) {
				m = m.Set(r)
			}
			scan &= scan - 1
		}
		if m == 0 {
			return
		}
		for _, e := range engines {
			if err := e.ObserveMask(ep, id, m); err != nil {
				t.Fatal(err)
			}
		}
	}

	home := make([]int, groups*perGroup)
	for o := range home {
		home[o] = o / perGroup
	}
	totalSkipped := 0
	for ck := 0; ck < ckpts; ck++ {
		active := rng.IntN(groups)
		fullyIdle := rng.Float64() < 0.25
		if !fullyIdle {
			loc := model.Loc(active % 4)
			for ep := model.Epoch(ck * interval); ep < model.Epoch((ck+1)*interval); ep++ {
				observe(ep, model.TagID(100+active), loc)
				for o := 0; o < groups*perGroup; o++ {
					if home[o] == active {
						observe(ep, model.TagID(o), loc)
					}
				}
				// A rare stray read of an idle tag keeps partially dirty
				// checkpoints in play.
				if rng.Float64() < 0.01 {
					stray := rng.IntN(groups * perGroup)
					observe(ep, model.TagID(stray), model.Loc(home[stray]%4))
				}
			}
			// Occasionally migrate an object of the active group so later
			// bursts read it at a new location (containment change).
			if rng.Float64() < 0.4 {
				o := active*perGroup + rng.IntN(perGroup)
				home[o] = rng.IntN(groups)
			}
		}
		// Stragglers: readings arriving hundreds of epochs late, older than
		// the previous truncation boundary — they must defeat the zone skip
		// (add-floor guard) or the engines' retained series diverge.
		if ck >= 4 && rng.Float64() < 0.5 {
			o := rng.IntN(groups * perGroup)
			late := model.Epoch(ck*interval - 210 - rng.IntN(150))
			observe(late, model.TagID(o), model.Loc(home[o]%4))
		}
		if ck == ckpts/2 {
			// A migration import lands identically on both engines: a new
			// object with shipped history and a critical region.
			for _, e := range engines {
				e.ImportCR(burstyImport())
			}
		}

		now := model.Epoch((ck+1)*interval - 1)
		ri := inc.Run(now)
		rr := ref.Run(now)
		if !reflect.DeepEqual(ri, rr) {
			t.Fatalf("checkpoint %d: RunResult diverged:\ninc: %+v\nref: %+v", ck, ri, rr)
		}
		compareEngines(t, ck, inc, ref, now)
		totalSkipped += inc.Stats().PosteriorsSkipped
	}
	if totalSkipped == 0 {
		t.Fatal("incremental fast path never engaged over the whole workload")
	}
}

// TestDetectionKeepingContainerRefreshesMemo covers the memo refresh under
// TruncateNone. Object 1 rides with container 100 for 100 epochs, then
// with container 101 for 300 more, beside object 2 that never moves. The
// M-step settles on 101, and change-point detection then keeps 101 while it
// drops object 1's readings before the change. 101's group is the same at
// the next Run, so only the end-of-Run memo refresh can take those readings
// out of its posterior rows; the engine must match the noCarry reference,
// which recomputes every posterior from scratch.
func TestDetectionKeepingContainerRefreshesMemo(t *testing.T) {
	lik := testLik(t)
	cfg := changeConfig()
	cfg.Truncation = TruncateNone
	inc := New(lik, cfg)
	ref := New(lik, cfg)
	ref.noCarry = true
	engines := []*Engine{inc, ref}
	for _, e := range engines {
		e.RegisterContainer(100)
		e.RegisterContainer(101)
		e.RegisterObject(1)
		e.RegisterObject(2)
	}
	read := func(ep model.Epoch, id model.TagID, r model.Loc) {
		for _, e := range engines {
			if err := e.ObserveMask(ep, id, model.Mask(0).Set(r)); err != nil {
				t.Fatal(err)
			}
		}
	}
	feed := func(from, to model.Epoch) {
		for ep := from; ep < to; ep++ {
			read(ep, 100, 0)
			read(ep, 101, 1)
			read(ep, 2, 1)
			if ep < 100 {
				read(ep, 1, 0)
			} else {
				read(ep, 1, 1)
			}
		}
	}
	run := func(ck int, now model.Epoch) {
		ri, rr := inc.Run(now), ref.Run(now)
		if !reflect.DeepEqual(ri, rr) {
			t.Fatalf("checkpoint %d: RunResult diverged:\ninc: %+v\nref: %+v", ck, ri, rr)
		}
		compareEngines(t, ck, inc, ref, now)
	}

	feed(0, 400)
	run(0, 399)
	d := inc.Detections()
	if len(d) != 1 || d[0].Object != 1 || d[0].NewContainer != 101 {
		t.Fatalf("want one detection moving object 1 to 101, got %+v", d)
	}
	if c := inc.tags[model.TagID(101)]; !slices.Contains(c.group, 1) || len(inc.tags[model.TagID(1)].dropped) == 0 {
		t.Fatalf("detection should drop object 1's early readings and keep it in 101's group %v", c.group)
	}
	feed(400, 500)
	run(1, 499)
	if st := inc.Stats(); st.RowsReused == 0 {
		t.Fatalf("101's rows below the new interval should be kept: %+v", st)
	}
	run(2, 599)
	if st := inc.Stats(); st.PosteriorsComputed != 0 {
		t.Fatalf("an idle Run should carry every posterior: %+v", st)
	}
}

// burstyImport builds the migration payload runBurstyPair imports mid-way.
// Constructed fresh per engine so no backing storage is shared.
func burstyImport() CRState {
	var st CRState
	st.Collapsed = CollapsedState{
		Object:        50,
		Container:     104,
		Candidates:    []model.TagID{104, 105},
		Weights:       []float64{0, -3.5},
		DefaultWeight: -8,
	}
	st.CR.From, st.CR.To = 520, 580
	for ep := model.Epoch(520); ep < 580; ep += 5 {
		st.ObjectHist = append(st.ObjectHist, model.Reading{T: ep, Mask: 1})
	}
	st.ContHist = map[model.TagID]model.Series{
		104: {{T: 525, Mask: 1}, {T: 545, Mask: 1}, {T: 565, Mask: 1}},
	}
	return st
}

// compareEngines asserts the two engines are in bit-identical externally
// visible state — containment, detections, critical regions, location
// read-offs — and, because the test lives inside the package, identical
// retained series, candidate lists, priors and posterior content (the state
// the carry-forward paths are allowed to touch only if they reproduce it
// exactly). Deliberately excluded: memo anchors like postThrough, which the
// incremental path may leave at an older (still consistent) horizon.
func compareEngines(t *testing.T, ck int, inc, ref *Engine, now model.Epoch) {
	t.Helper()
	if got, want := inc.Containment(), ref.Containment(); !reflect.DeepEqual(got, want) {
		t.Fatalf("checkpoint %d: containment diverged:\ninc: %v\nref: %v", ck, got, want)
	}
	if !reflect.DeepEqual(inc.Detections(), ref.Detections()) {
		t.Fatalf("checkpoint %d: detections diverged:\ninc: %v\nref: %v",
			ck, inc.Detections(), ref.Detections())
	}
	ids := append(append([]model.TagID(nil), inc.Objects()...), inc.Containers()...)
	for _, id := range ids {
		a, b := inc.tags[id], ref.tags[id]
		if a.cr != b.cr {
			t.Fatalf("checkpoint %d: tag %d critical region diverged: %+v vs %+v", ck, id, a.cr, b.cr)
		}
		if !slices.Equal(a.series, b.series) {
			t.Fatalf("checkpoint %d: tag %d retained series diverged (%d vs %d readings)",
				ck, id, len(a.series), len(b.series))
		}
		if !slices.Equal(a.cands, b.cands) || !slices.Equal(a.priorW, b.priorW) ||
			a.priorDefault != b.priorDefault {
			t.Fatalf("checkpoint %d: tag %d candidate state diverged:\ninc: %v %v %v\nref: %v %v %v",
				ck, id, a.cands, a.priorW, a.priorDefault, b.cands, b.priorW, b.priorDefault)
		}
		if a.isContainer {
			if a.postValid != b.postValid {
				t.Fatalf("checkpoint %d: container %d postValid diverged: %v vs %v",
					ck, id, a.postValid, b.postValid)
			}
			if a.postValid && (!slices.Equal(a.post.epochs, b.post.epochs) ||
				!slices.Equal(a.post.q, b.post.q)) {
				t.Fatalf("checkpoint %d: container %d posterior content diverged", ck, id)
			}
		}
		for _, back := range []model.Epoch{0, 7, 53, 211} {
			if la, lb := inc.LocationAt(id, now-back), ref.LocationAt(id, now-back); la != lb {
				t.Fatalf("checkpoint %d: tag %d location at %d diverged: %v vs %v",
					ck, id, now-back, la, lb)
			}
		}
	}
}

// TestUnreadSiteRunsClean holds a site that has read nothing to a clean
// first checkpoint: every site registers every tag of the world, most of
// them never read there, and a container with no reading and no member has
// an empty posterior that needs no compute — so the first Run computes no
// posterior and calls no group dirty, in the reference mode too. The first
// reading then makes exactly its container's group dirty.
func TestUnreadSiteRunsClean(t *testing.T) {
	for _, noCarry := range []bool{false, true} {
		e := New(testLik(t), DefaultConfig())
		e.noCarry = noCarry
		for c := model.TagID(100); c < 110; c++ {
			e.RegisterContainer(c)
		}
		for o := model.TagID(0); o < 50; o++ {
			e.RegisterObject(o)
		}
		e.Run(300)
		if st := e.Stats(); st.GroupsDirty != 0 || st.PosteriorsComputed != 0 || st.DirtyTags != 0 {
			t.Errorf("noCarry=%v: a site that read nothing reported %d groups dirty, %d posteriors computed, %d dirty tags after its first Run; want 0",
				noCarry, st.GroupsDirty, st.PosteriorsComputed, st.DirtyTags)
		}
		if err := e.Observe(301, 100, 0); err != nil {
			t.Fatal(err)
		}
		e.Run(600)
		if st := e.Stats(); st.GroupsDirty != 1 || st.PosteriorsComputed != 1 {
			t.Errorf("noCarry=%v: one container reading made %d groups dirty and computed %d posteriors; want 1 and 1",
				noCarry, st.GroupsDirty, st.PosteriorsComputed)
		}
	}
}
