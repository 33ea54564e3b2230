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
	lik := benchLik()
	e := New(lik, cfg)
	n := lik.N()
	for c := 0; c < nCont; c++ {
		e.RegisterContainer(model.TagID(1000 + c))
	}
	for o := 0; o < nCont*objsPer; o++ {
		e.RegisterObject(model.TagID(o))
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
				at := model.Loc(4 + c%(n-4))
				observe(t, model.TagID(1000+c), at)
				for o := 0; o < objsPer; o++ {
					observe(t, model.TagID(c*objsPer+o), at)
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
		e.tags[cid].postValid = false
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
		if len(e.tags[oid].cands) < e.cfg.MaxCandidates {
			b.Fatalf("object %d has %d candidates, want a full list", oid, len(e.tags[oid].cands))
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
			e.tags[e.containers[c]].post.ver++
		}
		e.mStep()
	}
}
