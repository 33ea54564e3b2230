package rfinfer

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"rfidtrack/internal/model"
	"rfidtrack/internal/sim"
	"rfidtrack/internal/workpool"
)

// refPointEvidence is the per-epoch point-evidence matrix change-point
// detection once read, built plainly: over the union of the object's own
// read epochs and its candidates' posterior epochs, evid[j][i] is e_{c_j,o}
// at epochs[i] (Eq 7) — the posterior's qBase plus q·δ of the object's mask
// at an epoch the candidate is active, the uniform-posterior evidence
// (uniform base plus the mask's mean) where it is not.
func refPointEvidence(e *Engine, rec *tagRec) (epochs []model.Epoch, evid [][]float64) {
	cands := rec.ev.cands
	for _, cid := range cands {
		epochs = append(epochs, e.tag(cid).post.epochs...)
	}
	for _, rd := range rec.series {
		epochs = append(epochs, rd.T)
	}
	slices.Sort(epochs)
	epochs = slices.Compact(epochs)
	evid = make([][]float64, len(cands))
	for j, cid := range cands {
		p := &e.tag(cid).post
		evid[j] = make([]float64, len(epochs))
		for i, t := range epochs {
			var mask model.Mask
			if oi, ok := slices.BinarySearchFunc(rec.series, t, func(rd model.Reading, t model.Epoch) int {
				return int(rd.T - t)
			}); ok {
				mask = rec.series[oi].Mask
			}
			row, mean := e.lik.MaskDelta(mask)
			pi, active := slices.BinarySearch(p.epochs, t)
			if !active {
				evid[j][i] = e.lik.UniformBase(t) + mean
				continue
			}
			v := p.qBase[pi]
			if row != nil {
				v += dot(p.q[pi*p.n:(pi+1)*p.n], row)
			}
			evid[j][i] = v
		}
	}
	return epochs, evid
}

// refBest is changepoint.Best as it was over the point-evidence matrix:
// priors[j] is attributed to the first segment, evid[j][i] is candidate j's
// evidence at the i-th tested epoch.
func refBest(evid [][]float64, priors []float64) (delta float64, split, before, after int) {
	k := len(evid)
	n := len(evid[0])
	oneSeg := math.Inf(-1)
	totals := make([]float64, k)
	for j := 0; j < k; j++ {
		t := priors[j]
		for i := 0; i < n; i++ {
			t += evid[j][i]
		}
		totals[j] = t
		oneSeg = max(oneSeg, t)
	}
	prefix := append([]float64(nil), priors...)
	twoSeg := math.Inf(-1)
	split, before, after = 0, -1, -1
	for i := 0; i <= n; i++ {
		bp, bpj := math.Inf(-1), -1
		bs, bsj := math.Inf(-1), -1
		for j := 0; j < k; j++ {
			if prefix[j] > bp {
				bp, bpj = prefix[j], j
			}
			if s := totals[j] - prefix[j]; s > bs {
				bs, bsj = s, j
			}
		}
		if v := bp + bs; v > twoSeg {
			twoSeg, split, before, after = v, i, bpj, bsj
		}
		if i < n {
			for j := 0; j < k; j++ {
				prefix[j] += evid[j][i]
			}
		}
	}
	return twoSeg - oneSeg, split, before, after
}

// refTest is one object's change-point test run on the reference matrix.
type refTest struct {
	tested               bool
	epochs               []model.Epoch // the tested epochs
	evid                 [][]float64   // their columns of the matrix
	priors               []float64     // priorW plus the evidence before cpStart
	delta                float64
	split, before, after int
}

// twoSeg is the two-segment score of a split under the reference matrix.
func (r *refTest) twoSeg(split, before, after int) float64 {
	s := r.priors[before]
	for _, v := range r.evid[before][:split] {
		s += v
	}
	for _, v := range r.evid[after][split:] {
		s += v
	}
	return s
}

// referenceTest runs the change-point test of one object on the reference
// matrix, with detectChanges' selection of what is tested.
func referenceTest(e *Engine, rec *tagRec) refTest {
	ev := rec.ev
	if ev == nil || len(ev.cands) == 0 || rec.series.Last() <= e.lastRun {
		return refTest{}
	}
	epochs, evid := refPointEvidence(e, rec)
	lo, _ := slices.BinarySearch(epochs, rec.cpStart)
	if len(epochs)-lo < 2 {
		return refTest{}
	}
	r := refTest{tested: true, epochs: epochs[lo:], priors: slices.Clone(rec.priorW)}
	for j := range evid {
		for _, v := range evid[j][:lo] {
			r.priors[j] += v
		}
		r.evid = append(r.evid, evid[j][lo:])
	}
	r.delta, r.split, r.before, r.after = refBest(r.evid, r.priors)
	return r
}

// testedEpochs lists the epochs detectChanges tests for rec: the window
// table's rows at or after cpStart, oldest first.
func testedEpochs(e *Engine, rec *tagRec) []model.Epoch {
	s := e.getScratch()
	defer scratches.Put(s)
	tb := &s.cr
	tb.reset(e, rec.ev, rec.series)
	tb.extend(int64(rec.cpStart), rec.series)
	var out []model.Epoch
	for g := len(tb.rows) - 2; g >= 0; g-- {
		out = append(out, model.Epoch(tb.rows[g].t))
	}
	return out
}

// detectChecker drives an engine Run by Run and, between the EM loop and
// change-point detection, holds every object's test against the reference.
type detectChecker struct {
	tested, clipped, primed, detections int
}

func (c *detectChecker) run(t *testing.T, e *Engine, now model.Epoch) {
	t.Helper()
	pool := workpool.New(e.cfg.Workers)
	defer pool.Close()
	e.UsePool(pool)
	defer e.UsePool(nil)

	e.estimate(now)
	refs := make([]refTest, len(e.objects))
	epochs := make([][]model.Epoch, len(e.objects))
	for oi, oid := range e.objects {
		rec := e.tag(oid)
		refs[oi] = referenceTest(e, rec)
		if refs[oi].tested {
			epochs[oi] = testedEpochs(e, rec)
			if rec.cpStart > 0 {
				c.clipped++
			}
			if slices.ContainsFunc(rec.priorW, func(w float64) bool { return w != rec.priorW[0] }) {
				c.primed++
			}
		}
	}
	c.detections += len(e.detectChanges(now))
	for oi, oid := range e.objects {
		ref, cp := refs[oi], e.cps[oi]
		if cp.tested != ref.tested {
			t.Fatalf("Run at %d: object %d tested %v, reference %v", now, oid, cp.tested, ref.tested)
		}
		if !ref.tested {
			continue
		}
		c.tested++
		if !slices.Equal(epochs[oi], ref.epochs) {
			t.Fatalf("Run at %d: object %d tests epochs %v, reference %v", now, oid, epochs[oi], ref.epochs)
		}
		if d := math.Abs(cp.delta - ref.delta); d > 1e-9 {
			t.Fatalf("Run at %d: object %d Δ %v, reference %v (off by %g)", now, oid, cp.delta, ref.delta, d)
		}
		got, want := ref.twoSeg(cp.split, cp.before, cp.after), ref.twoSeg(ref.split, ref.before, ref.after)
		if d := math.Abs(got - want); d > 1e-9 {
			t.Fatalf("Run at %d: object %d split (%d, %d, %d) scores %v, the reference's (%d, %d, %d) %v",
				now, oid, cp.split, cp.before, cp.after, got, ref.split, ref.before, ref.after, want)
		}
	}
	e.updateCriticalRegions()
	e.retire(now)
}

// TestChangeDetectionMatchesMatrix holds change-point detection on the
// window table against the point-evidence matrix it once read: for every
// object tested in every Run, the same tested epochs, the same Δ within
// 1e-9, and a split whose two-segment score reaches the reference's best
// within 1e-9 (exact ties may resolve to another split or candidate: the
// table leaves out the uniform evidence, whose rounding broke them in the
// matrix). Half the objects arrive with migrated prior weights, and the
// threshold is low enough that detections, true or false, move cpStart, so
// the test meets both things the first segment carries besides the tested
// epochs: the priors, and the evidence before the last change point. Every
// seed of the randomized scene runs at one worker and at GOMAXPROCS.
func TestChangeDetectionMatchesMatrix(t *testing.T) {
	lik := testLik(t)
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		var c detectChecker
		for seed := uint64(1); seed <= 5; seed++ {
			t.Run(fmt.Sprintf("workers=%d/seed=%d", workers, seed), func(t *testing.T) {
				const epochs = model.Epoch(480)
				objs, conts, readings := genWorkload(t, lik, seed, epochs)
				cfg := DefaultConfig()
				cfg.CollectDeltas = true
				cfg.Delta = 0.5 // the scene's Δ rarely passes 5: detect often
				cfg.Workers = workers
				e := New(lik, cfg)
				for _, o := range objs[:len(objs)/2] {
					e.ImportCollapsed(CollapsedState{
						Object: o, Container: conts[1],
						Candidates: conts, Weights: []float64{-float64(8 * (o + 1)), 0},
					})
				}
				next := 0
				for now := model.Epoch(60); now <= epochs; now += 60 {
					end := next
					for end < len(readings) && readings[end].t < now {
						end++
					}
					feedEngine(t, e, objs, conts, readings[next:end])
					next = end
					c.run(t, e, now-1)
				}
			})
		}
		if c.tested == 0 || c.clipped == 0 || c.primed == 0 || c.detections == 0 {
			t.Fatalf("workers=%d: %+v; the comparison is vacuous", workers, c)
		}
		t.Logf("workers=%d: %+v", workers, c)
	}
}

// TestDetectionKeepsPreRunRegion pins what the critical-region search does
// with an object whose history a detection has just cut: nothing. Its
// correction table still sums the readings the reset dropped, so the object
// keeps the region it entered the Run with — or none, when that region
// ended at or before the change — and is searched again by the next Run
// over the history it still has. A window found in the dropped evidence
// would protect pre-change readings from truncation. (A detection whose
// change epoch precedes every reading the object has drops nothing, and its
// table stays the object's: the search runs.)
func TestDetectionKeepsPreRunRegion(t *testing.T) {
	world := sim.DefaultConfig()
	world.Epochs = 1500
	world.ItemsPerCase = 6
	world.ShelfDwell = 200
	world.AnomalyEvery = 20
	feed := newSimFeed(t, world)
	const interval = 100
	cfg := DefaultConfig()
	cfg.RecentHistory = 200
	cfg.Delta = 40
	e := feed.engine(cfg)
	kept, cleared, searched := 0, 0, 0
	for now := model.Epoch(interval); now <= feed.tr.Epochs; now += interval {
		feed.through(t, now, e)
		before := make(map[model.TagID]window, len(e.objects))
		first := make(map[model.TagID]model.Epoch, len(e.objects))
		for _, oid := range e.objects {
			rec := e.tag(oid)
			before[oid], first[oid] = rec.cr, epochMax
			if len(rec.series) > 0 {
				first[oid] = rec.series[0].T
			}
		}
		res := e.Run(now - 1)
		for _, d := range res.Changes {
			if first[d.Object] >= d.At {
				searched++
				continue
			}
			pre, got := before[d.Object], e.tag(d.Object).cr
			want := pre
			if pre.To <= d.At {
				want = window{}
			}
			if got != want {
				t.Fatalf("Run at %d: object %d reset at %d: region %+v, entered the Run with %+v", now-1, d.Object, d.At, got, pre)
			}
			if want.empty() {
				cleared++
			} else {
				kept++
			}
		}
	}
	if kept == 0 || cleared == 0 {
		t.Fatalf("%d detections kept their region, %d cleared it; the rule is not exercised both ways", kept, cleared)
	}
	t.Logf("%d resets kept their region, %d cleared it; %d detections dropped nothing", kept, cleared, searched)
}
