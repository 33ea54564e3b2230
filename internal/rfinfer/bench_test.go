package rfinfer

import (
	"math/rand/v2"
	"testing"

	"rfidtrack/internal/model"
	"rfidtrack/internal/workpool"
)

// benchLik builds a 16-location observation model with a 5-phase schedule:
// readers 0-3 scan every epoch (doors/belts), the rest are shelves scanning
// one phase in five, with adjacent-shelf overlap.
func benchLik() *model.Likelihood {
	const n = 16
	rates, err := model.UniformReadRates(n, 0.8, 0.2, 1e-6, func(r, a int) bool {
		d := r - a
		return d == 1 || d == -1
	})
	if err != nil {
		panic(err)
	}
	sched, err := model.NewSchedule(5, n, func(r, p int) bool {
		if r < 4 {
			return true
		}
		return r%5 == p
	})
	if err != nil {
		panic(err)
	}
	return model.NewLikelihood(rates, sched)
}

// benchEngine builds the deployed steady-state workload: nCont containers
// each holding objsPer objects, everything read at the container's home
// shelf. feed(e, from, to) appends one interval of readings.
func benchEngine(cfg Config, nCont, objsPer int) (*Engine, func(from, to model.Epoch)) {
	return benchEngineAt(cfg, nCont, objsPer, 1, benchHome)
}

// benchHome places container c on its home shelf of the 16-location bench
// layout at every epoch.
func benchHome(c int, _ model.Epoch) model.Loc { return model.Loc(4 + c%12) }

// benchEngineAt is benchEngine with the containers placed by at(c, t) and
// the objects' tags interrogated only every objEvery-th epoch (staggered by
// object), the way a shelf reader's duty cycle thins an item's series.
func benchEngineAt(cfg Config, nCont, objsPer, objEvery int, at func(c int, t model.Epoch) model.Loc) (*Engine, func(from, to model.Epoch)) {
	lik := benchLik()
	e := New(lik, cfg)
	// Objects first: registered in id order, they size the tag table past
	// the containers' ids, so no container lands in the far map.
	for o := 0; o < nCont*objsPer; o++ {
		e.RegisterObject(model.TagID(o))
	}
	for c := 0; c < nCont; c++ {
		e.RegisterContainer(model.TagID(1000 + c))
	}
	rng := rand.New(rand.NewPCG(42, 1))
	observe := func(t model.Epoch, id model.TagID, at model.Loc) {
		var m model.Mask
		scan := lik.Schedule().ScanMask(t)
		for scan != 0 {
			r := scan.First()
			if rng.Float64() < lik.Rates().Prob(r, at) {
				m = m.Set(r)
			}
			scan &= scan - 1
		}
		if m != 0 {
			if err := e.ObserveMask(t, id, m); err != nil {
				panic(err)
			}
		}
	}
	feed := func(from, to model.Epoch) {
		for t := from; t < to; t++ {
			for c := 0; c < nCont; c++ {
				at := at(c, t)
				observe(t, model.TagID(1000+c), at)
				for o := 0; o < objsPer; o++ {
					if (int(t)+o)%objEvery == 0 {
						observe(t, model.TagID(c*objsPer+o), at)
					}
				}
			}
		}
	}
	return e, feed
}

// BenchmarkEngineRun measures the deployed hot path: one 300-epoch interval
// of readings arrives, then Engine.Run infers over the retained history.
// This is the per-interval cost the paper's Section 5.3 scalability study
// bounds by the 300 s budget.
func BenchmarkEngineRun(b *testing.B) {
	const interval = 300
	e, feed := benchEngine(DefaultConfig(), 8, 12)
	// Warm-up: reach steady state (retained history at its stable size).
	now := model.Epoch(0)
	for i := 0; i < 3; i++ {
		feed(now, now+interval)
		now += interval
		e.Run(now - 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		feed(now, now+interval)
		now += interval
		b.StartTimer()
		e.Run(now - 1)
	}
}

// invalidatePosteriors drops every container's cross-Run memo, forcing the
// next E-step to recompute from scratch (benchmark and test helper).
func (e *Engine) invalidatePosteriors() {
	e.runSeq++
	for _, cid := range e.containers {
		e.tag(cid).postValid = false
	}
}

// BenchmarkEStep measures one full E-step sweep (every container posterior
// recomputed, memo invalidated) over a steady-state retained history.
func BenchmarkEStep(b *testing.B) {
	const interval = 300
	e, feed := benchEngine(DefaultConfig(), 8, 12)
	now := model.Epoch(0)
	for i := 0; i < 3; i++ {
		feed(now, now+interval)
		now += interval
		e.Run(now - 1)
	}
	e.rebuildGroups()
	pool := workpool.New(0) // eStep outside a Run: no private pool exists
	defer pool.Close()
	e.UsePool(pool)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.invalidatePosteriors()
		e.eStep()
	}
}

// BenchmarkMStep measures one M-step pass on a dense shape — 36 containers
// three to a shelf, 20 objects each, every object's candidate list full at
// MaxCandidates — in the state an EM iteration finds it in: the series
// stand, and a quarter of the container posteriors moved since the last
// pass (their versions are bumped; the content is the same, so the pass
// scores what it scored before). Every object is rebuilt, keeping the
// segments of the candidates that did not move and rescoring the rest from
// the posteriors' evidence cells. The objects' work allocates nothing in
// steady state; the 2 allocs/op are the fan-out's closures, as in EStep.
func BenchmarkMStep(b *testing.B) {
	const interval = 300
	e, feed := benchEngine(DefaultConfig(), 36, 20)
	now := model.Epoch(0)
	for i := 0; i < 3; i++ {
		feed(now, now+interval)
		now += interval
		e.Run(now - 1)
	}
	for _, oid := range e.objects {
		if len(e.tag(oid).cands) < e.cfg.MaxCandidates {
			b.Fatalf("object %d has %d candidates, want a full list", oid, len(e.tag(oid).cands))
		}
	}
	pool := workpool.New(0) // mStep outside a Run: no private pool exists
	defer pool.Close()
	e.UsePool(pool)
	e.rebuildGroups()
	e.eStep()
	e.mStep()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for c := i % 4; c < len(e.containers); c += 4 {
			e.tag(e.containers[c]).post.ver++
		}
		e.mStep()
	}
}

// BenchmarkCRSearch measures the critical-region search over every object
// of a dense site: 36 containers three to a shelf, 20 objects each, full
// candidate lists, 600-800 epochs of retained history. One container of
// each shelf passes a door reader at the end of every interval, so its
// objects' newest windows are decisive and their searches stop after the
// first rows; the margin threshold is set where about a
// quarter of the searches (the paper_dense share) merge and scan the whole
// history and find nothing, and the rest hit somewhere in between. The
// window tables live in worker scratch: 2 allocs/op are the fan-out's
// closures, as in EStep.
func BenchmarkCRSearch(b *testing.B) {
	const interval = 300
	cfg := DefaultConfig()
	cfg.CRThreshold = 70
	e, feed := benchEngineAt(cfg, 36, 20, 1, func(c int, t model.Epoch) model.Loc {
		if c%3 == 0 && t%interval >= interval-20 {
			return model.Loc(c % 4)
		}
		return benchHome(c, t)
	})
	now := model.Epoch(0)
	for i := 0; i < 4; i++ {
		feed(now, now+interval)
		now += interval
		e.Run(now - 1)
	}
	pool := workpool.New(0) // the search outside a Run: no private pool exists
	defer pool.Close()
	e.UsePool(pool)
	// Evidence over the truncated history, as the search of a Run finds it.
	e.buildCandidates()
	e.rebuildGroups()
	e.eStep()
	e.mStep()
	for _, oid := range e.objects {
		rec := e.tag(oid)
		if len(rec.cands) < e.cfg.MaxCandidates {
			b.Fatalf("object %d has %d candidates, want a full list", oid, len(rec.cands))
		}
		rec.evSeq = e.runSeq // searched on every pass
	}
	e.nCRSearches.Store(0)
	e.nCRWindows.Store(0)
	e.nCRNoHit.Store(0)
	e.updateCriticalRegions()
	searches, noHit := e.nCRSearches.Load(), e.nCRNoHit.Load()
	if searches != int64(len(e.objects)) || noHit == 0 || noHit == searches {
		b.Fatalf("%d searches, %d without a hit: want every object searched and a mix of outcomes", searches, noHit)
	}
	windows := float64(e.nCRWindows.Load()) / float64(searches)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.updateCriticalRegions()
	}
	b.ReportMetric(windows, "windows/search")
}

// BenchmarkPruneCandidates measures a candidate build — the co-occurrence
// flatten, then pruning for every object — of one site: 40 containers' readings
// over ~600 retained epochs, 20 objects each, an object's tag read about
// every sixth epoch — so five epochs in six of the index are none of a given
// object's business.
func BenchmarkPruneCandidates(b *testing.B) {
	const interval = 300
	e, feed := benchEngineAt(DefaultConfig(), 40, 20, 6, benchHome)
	now := model.Epoch(0)
	for i := 0; i < 3; i++ {
		feed(now, now+interval)
		now += interval
		e.Run(now - 1)
	}
	pool := workpool.New(0) // pruning outside a Run: no private pool exists
	defer pool.Close()
	e.UsePool(pool)
	e.buildCandidates()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.buildCandidates()
	}
}
