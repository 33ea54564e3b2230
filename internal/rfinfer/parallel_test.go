package rfinfer

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"runtime"
	"testing"

	"rfidtrack/internal/model"
	"rfidtrack/internal/workpool"
)

// changeWorkload is a multi-interval scenario with a containment change:
// containers 100 (loc 2) and 101 (loc 3), objects 0-2 resident with 100
// and 6-11 resident with 101 (a dense destination group, as real cases
// carry many items), while objects 3-5 start with 100 and move to 101 at
// epoch 250. Readings are generated deterministically from seed and fed
// interval by interval with a Run after each, exercising candidate
// pruning, the cross-Run memo, change-point detection, critical regions,
// and CR truncation together.
type changeWorkload struct {
	t    *testing.T
	e    *Engine
	lik  *model.Likelihood
	rng  *rand.Rand
	base model.Epoch // stream-time offset of the whole scenario
	next model.Epoch // scenario epochs fed so far
	// invalidate drops the posterior memo before every Run, forcing
	// from-scratch recomputation.
	invalidate bool
	// total accumulates RunStats over every Run.
	total RunStats
}

const (
	changeInterval = 100
	changeEpochs   = 500
)

func newChangeWorkload(t *testing.T, e *Engine, lik *model.Likelihood, seed uint64) *changeWorkload {
	e.RegisterContainer(100)
	e.RegisterContainer(101)
	for o := model.TagID(0); o < 12; o++ {
		e.RegisterObject(o)
	}
	return &changeWorkload{t: t, e: e, lik: lik, rng: rand.New(rand.NewPCG(seed, 17))}
}

func (cw *changeWorkload) observe(ep model.Epoch, id model.TagID, at model.Loc) {
	var m model.Mask
	scan := cw.lik.Schedule().ScanMask(cw.base + ep)
	for scan != 0 {
		r := scan.First()
		if cw.rng.Float64() < cw.lik.Rates().Prob(r, at) {
			m = m.Set(r)
		}
		scan &= scan - 1
	}
	if m != 0 {
		if err := cw.e.ObserveMask(cw.base+ep, id, m); err != nil {
			cw.t.Error(err) // not Fatal: steps may run off the test goroutine
		}
	}
}

// step feeds the next interval and Runs the engine at its end.
func (cw *changeWorkload) step() {
	for end := cw.next + changeInterval; cw.next < end; cw.next++ {
		ep := cw.next
		cw.observe(ep, 100, 2)
		cw.observe(ep, 101, 3)
		for o := model.TagID(0); o < 3; o++ {
			cw.observe(ep, o, 2)
		}
		for o := model.TagID(6); o < 12; o++ {
			cw.observe(ep, o, 3)
		}
		for o := model.TagID(3); o < 6; o++ {
			at := model.Loc(2)
			if ep >= 250 {
				at = 3
			}
			cw.observe(ep, o, at)
		}
	}
	if cw.invalidate {
		cw.e.invalidatePosteriors()
	}
	cw.e.Run(cw.base + cw.next - 1)
	st := cw.e.Stats()
	cw.total.PosteriorsComputed += st.PosteriorsComputed
	cw.total.PosteriorsSkipped += st.PosteriorsSkipped
	cw.total.RowsReused += st.RowsReused
	cw.total.RowsComputed += st.RowsComputed
}

// feedChangeWorkload drives the whole changeWorkload through e and returns
// the accumulated RunStats.
func feedChangeWorkload(t *testing.T, e *Engine, lik *model.Likelihood, seed uint64, invalidate bool) RunStats {
	t.Helper()
	cw := newChangeWorkload(t, e, lik, seed)
	cw.invalidate = invalidate
	for cw.next < changeEpochs {
		cw.step()
	}
	return cw.total
}

// engineFingerprint captures every externally visible inference output.
type engineFingerprint struct {
	containment map[model.TagID]model.TagID
	detections  []Detection
	crFrom      map[model.TagID]model.Epoch
	crTo        map[model.TagID]model.Epoch
	locs        map[model.TagID][]model.Loc
}

func fingerprint(e *Engine) engineFingerprint { return fingerprintAt(e, 0) }

// fingerprintAt is fingerprint for a changeWorkload offset by base.
func fingerprintAt(e *Engine, base model.Epoch) engineFingerprint {
	fp := engineFingerprint{
		containment: e.Containment(),
		detections:  append([]Detection(nil), e.Detections()...),
		crFrom:      make(map[model.TagID]model.Epoch),
		crTo:        make(map[model.TagID]model.Epoch),
		locs:        make(map[model.TagID][]model.Loc),
	}
	ids := append(append([]model.TagID(nil), e.Objects()...), e.Containers()...)
	for _, id := range ids {
		fp.crFrom[id], fp.crTo[id] = e.CriticalRegion(id)
		for ep := model.Epoch(0); ep < changeEpochs; ep += 13 {
			fp.locs[id] = append(fp.locs[id], e.LocationAt(id, base+ep))
		}
	}
	return fp
}

// changeConfig is the workload's inference config: short recent history for
// truncation pressure and a threshold low enough to flag the epoch-250 move.
func changeConfig() Config {
	cfg := DefaultConfig()
	cfg.RecentHistory = 200
	cfg.Delta = 10
	return cfg
}

// TestParallelEquivalence verifies the tentpole invariant: Engine.Run
// produces bit-identical containment, detections, critical regions, and
// location read-offs at every worker count — on a private pool, and on one
// pool shared with a second engine. The second engine runs the same stream
// 1000 epochs later: same tag ids, and — the scenario being identical up to
// the shift — the same posterior versions at every step, but no epoch in
// common. That is what catches scratch state leaking between engines: a
// worker-scratch cache keyed on ids and versions alone would hit across
// them and hand one engine the other's epochs. The threshold is set, so
// every Run also runs change-point detection on the window table.
func TestParallelEquivalence(t *testing.T) {
	lik := testLik(t)
	const seed = 7
	bases := []model.Epoch{0, 1000} // multiples of the reader schedule's period
	refs := make([]engineFingerprint, len(bases))
	for i, base := range bases {
		cfg := changeConfig()
		cfg.Workers = 1
		cw := newChangeWorkload(t, New(lik, cfg), lik, seed)
		cw.base = base
		for cw.next < changeEpochs {
			cw.step()
		}
		refs[i] = fingerprintAt(cw.e, base)
		if len(refs[i].detections) == 0 {
			t.Fatalf("base %d: workload produced no detections; test is vacuous", base)
		}
	}
	compare := func(name string, ref, fp engineFingerprint) {
		t.Helper()
		if !reflect.DeepEqual(ref.containment, fp.containment) {
			t.Errorf("%s: containment differs: %v vs %v", name, fp.containment, ref.containment)
		}
		if !reflect.DeepEqual(ref.detections, fp.detections) {
			t.Errorf("%s: detections differ: %v vs %v", name, fp.detections, ref.detections)
		}
		if !reflect.DeepEqual(ref.crFrom, fp.crFrom) || !reflect.DeepEqual(ref.crTo, fp.crTo) {
			t.Errorf("%s: critical regions differ", name)
		}
		if !reflect.DeepEqual(ref.locs, fp.locs) {
			t.Errorf("%s: location read-offs differ", name)
		}
	}

	for _, w := range []int{4, runtime.GOMAXPROCS(0)} {
		cfg := changeConfig()
		cfg.Workers = w
		e := New(lik, cfg)
		feedChangeWorkload(t, e, lik, seed, false)
		compare(fmt.Sprintf("private pool of %d", w), refs[0], fingerprint(e))
	}

	for _, w := range []int{1, 2, 4} {
		pool := workpool.New(w)
		loads := make([]*changeWorkload, len(bases))
		for i, base := range bases {
			e := New(lik, changeConfig())
			e.UsePool(pool)
			loads[i] = newChangeWorkload(t, e, lik, seed)
			loads[i].base = base
		}
		// Each round is a cluster checkpoint in miniature: the outer loop
		// runs one interval of every engine, whose phases nest on the same
		// pool. On a pool of 1 the engines alternate on one worker, so each
		// Run inherits the scratch the other engine's Run just left.
		for loads[0].next < changeEpochs {
			pool.For(len(loads), 1, func(i, _ int) { loads[i].step() })
		}
		pool.Close()
		for i, cw := range loads {
			compare(fmt.Sprintf("shared pool of %d, engine %d", w, i), refs[i], fingerprintAt(cw.e, cw.base))
		}
	}
}

// TestMemoEquivalence verifies that the cross-Run memo never changes
// inference output: an engine with the memo forcibly invalidated before
// every Run (recomputing every posterior from scratch) matches one using
// the memo, bit for bit.
func TestMemoEquivalence(t *testing.T) {
	lik := testLik(t)
	run := func(invalidate bool) (engineFingerprint, RunStats) {
		e := New(lik, changeConfig())
		st := feedChangeWorkload(t, e, lik, 7, invalidate)
		return fingerprint(e), st
	}
	memo, memoStats := run(false)
	fresh, _ := run(true)
	if memoStats.PosteriorsSkipped+memoStats.RowsReused == 0 {
		t.Fatal("memo never engaged; test is vacuous")
	}
	if !reflect.DeepEqual(memo, fresh) {
		t.Errorf("memoized inference diverged from from-scratch inference:\nmemo:  %+v\nfresh: %+v", memo, fresh)
	}
}

// TestMemoSkipsAndInvalidates pins the memo's behavior: a Run with no new
// data recomputes nothing; new readings for one group member invalidate
// exactly the containers that depend on it.
func TestMemoSkipsAndInvalidates(t *testing.T) {
	lik := testLik(t)
	rng := rand.New(rand.NewPCG(3, 9))
	e := New(lik, DefaultConfig())
	e.RegisterContainer(100)
	e.RegisterContainer(101) // decoy, never grouped
	for o := model.TagID(0); o < 4; o++ {
		e.RegisterObject(o)
	}
	synthesize(t, e, rng, lik, 100, 2, 200)
	synthesize(t, e, rng, lik, 101, 3, 200)
	for o := model.TagID(0); o < 4; o++ {
		synthesize(t, e, rng, lik, o, 2, 200)
	}
	e.Run(199)
	if st := e.Stats(); st.PosteriorsComputed == 0 {
		t.Fatalf("first Run computed nothing: %+v", st)
	}
	// The first pass moved every object into container 100, so the second EM
	// iteration recomputed that posterior and rebuilt the objects' evidence —
	// but the decoy's posterior stood, and its segments must have been kept.
	if st := e.Stats(); e.Iterations() < 2 || st.EvidenceSegmentsReused == 0 || st.EvidenceSegmentsComputed == 0 {
		t.Fatalf("second EM iteration should keep the decoy's segments and rescore the rest, got %d iterations, %+v",
			e.Iterations(), st)
	}

	// No new data: every posterior must come from the memo.
	e.Run(299)
	if st := e.Stats(); st.PosteriorsComputed != 0 || st.PosteriorsSkipped == 0 {
		t.Fatalf("idle Run should skip all posteriors, got %+v", st)
	}

	// A new reading for one member object invalidates its container's
	// posterior; the decoy container (no group, no new data) stays memoized.
	if err := e.Observe(210, 0, 2); err != nil {
		t.Fatal(err)
	}
	before := e.Containment()
	e.Run(399)
	st := e.Stats()
	if st.PosteriorsComputed != 1 {
		t.Fatalf("member data change should recompute exactly its container, got %+v", st)
	}
	if st.PosteriorsSkipped == 0 {
		t.Fatalf("decoy container should stay memoized, got %+v", st)
	}
	if !reflect.DeepEqual(before, e.Containment()) {
		t.Errorf("containment flapped on one extra observation: %v vs %v", before, e.Containment())
	}
}

// TestIncrementalRowReuse pins the incremental E-step: in the steady state
// (new readings only appending history), every posterior row from the
// previous Run is reused and only the new interval's epochs are computed.
func TestIncrementalRowReuse(t *testing.T) {
	lik := testLik(t)
	rng := rand.New(rand.NewPCG(5, 21))
	e := New(lik, DefaultConfig())
	e.RegisterContainer(100)
	e.RegisterObject(1)
	feed := func(from, to model.Epoch) {
		for ep := from; ep < to; ep++ {
			for _, id := range []model.TagID{100, 1} {
				var m model.Mask
				scan := lik.Schedule().ScanMask(ep)
				for scan != 0 {
					r := scan.First()
					if rng.Float64() < lik.Rates().Prob(r, 2) {
						m = m.Set(r)
					}
					scan &= scan - 1
				}
				if m != 0 {
					if err := e.ObserveMask(ep, id, m); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
	feed(0, 100)
	e.Run(99)
	prevRows := len(e.tags[model.TagID(100)].post.epochs)
	if prevRows == 0 {
		t.Fatal("first Run produced no posterior rows")
	}
	feed(100, 200)
	e.Run(199)
	st := e.Stats()
	if st.RowsReused != prevRows {
		t.Fatalf("incremental Run reused %d rows, want all %d from the previous Run (%+v)",
			st.RowsReused, prevRows, st)
	}
	if st.RowsComputed == 0 {
		t.Fatalf("incremental Run computed no new rows: %+v", st)
	}

	// A straggler inside the first interval lowers the add floor to its
	// epoch: the rows below it are still exact and must be kept, and only
	// the rows from it on recomputed.
	late := model.Epoch(50)
	for ; late < 100; late++ {
		if lik.Schedule().ScanMask(late).Has(2) && e.tags[model.TagID(1)].series.CountIn(late, late+1) == 0 {
			break
		}
	}
	if late == 100 {
		t.Fatal("no unread epoch of the first interval scans reader 2")
	}
	below := 0
	for _, ep := range e.tags[model.TagID(100)].post.epochs {
		if ep < late {
			below++
		}
	}
	if err := e.ObserveMask(late, 1, model.Mask(0).Set(2)); err != nil {
		t.Fatal(err)
	}
	e.Run(199)
	if st := e.Stats(); st.RowsReused != below || st.PosteriorsComputed != 1 {
		t.Fatalf("straggler at %d: reused %d rows, want the %d below it (%+v)", late, st.RowsReused, below, st)
	}
}
