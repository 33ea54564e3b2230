package rfinfer

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"rfidtrack/internal/model"
	"rfidtrack/internal/sim"
	"rfidtrack/internal/workpool"
)

// refSegments is the packed-segment builder the dense correction table
// replaced, kept as the reference the table is held against: per candidate,
// a walk that skips the posterior's epochs one at a time up to each own
// reading, and one segment entry per own reading the candidate is active at
// — t[off[j]:off[j+1]] its epochs, pre their inclusive prefix sums — plus
// the totals the segments imply. It scores every candidate from nothing.
type refSegments struct {
	off    []int32
	t      []model.Epoch
	pre    []float64
	totals []float64
}

func buildRefSegments(e *Engine, rec *tagRec, cands []model.TagID) refSegments {
	var ref refSegments
	own := rec.series
	for k, cid := range cands {
		post := &e.tag(cid).post
		pEpochs, pQ, pn, pCells := post.epochs, post.q, post.n, post.cellsOrNil()
		ref.off = append(ref.off, int32(len(ref.t)))
		acc := 0.0
		j := 0
		for _, rd := range own {
			t := rd.T
			for j < len(pEpochs) && pEpochs[j] < t {
				j++
			}
			if j >= len(pEpochs) {
				break
			}
			if pEpochs[j] != t {
				continue
			}
			if row, mean := e.lik.MaskDelta(rd.Mask); row != nil {
				var d float64
				if r := singleReader(rd.Mask); r >= 0 && pCells != nil {
					d = pCells[j*pn+r]
				} else {
					d = dot(pQ[j*pn:(j+1)*pn], row)
				}
				acc += d - mean
				ref.t = append(ref.t, t)
				ref.pre = append(ref.pre, acc)
			}
		}
		ref.totals = append(ref.totals, post.advSum+acc+rec.priorW[k])
	}
	ref.off = append(ref.off, int32(len(ref.t)))
	return ref
}

// expand returns candidate j's segment as one running sum per own reading
// count c = 0..m: the prefix of its newest entry at or before reading c, or
// +0.0 before its first.
func (ref refSegments) expand(own model.Series, j int) []float64 {
	lo, hi := int(ref.off[j]), int(ref.off[j+1])
	out := []float64{0}
	q := lo
	for _, rd := range own {
		for q < hi && ref.t[q] <= rd.T {
			q++
		}
		v := 0.0
		if q > lo {
			v = ref.pre[q-1]
		}
		out = append(out, v)
	}
	return out
}

// checkCorrTable holds one object's evidence — the dense table and the
// totals — against the reference, bit for bit.
func checkCorrTable(t *testing.T, e *Engine, rec *tagRec, ev *objEvidence, stage string) {
	t.Helper()
	k, m := len(ev.cands), len(rec.series)
	if len(ev.corr) != (m+1)*k {
		t.Fatalf("%s: object %d: table of %d entries for %d readings × %d candidates", stage, rec.id, len(ev.corr), m, k)
	}
	ref := buildRefSegments(e, rec, ev.cands)
	for j := range ev.cands {
		want := ref.expand(rec.series, j)
		for c, w := range want {
			if got := ev.corr[c*k+j]; math.Float64bits(got) != math.Float64bits(w) {
				t.Fatalf("%s: object %d candidate %d (%d) after %d readings: table %v (%x), segments %v (%x)",
					stage, rec.id, j, ev.cands[j], c, got, math.Float64bits(got), w, math.Float64bits(w))
			}
		}
		if got, w := ev.totals[j], ref.totals[j]; math.Float64bits(got) != math.Float64bits(w) {
			t.Fatalf("%s: object %d candidate %d total %v, segments %v", stage, rec.id, ev.cands[j], got, w)
		}
	}
}

// corrCases counts the table layouts the comparison has seen.
type corrCases struct {
	checked, inPlace, moved, grown, shrunk, empty, multi, second int
}

// evBefore is one object's evidence stamps before an M-step pass.
type evBefore struct {
	current bool
	usable  bool
	cands   []model.TagID
	vers    []uint32
}

func snapshotEvidence(e *Engine) map[model.TagID]evBefore {
	out := make(map[model.TagID]evBefore, len(e.objects))
	for _, oid := range e.objects {
		rec := e.tag(oid)
		p := evBefore{current: e.evidenceCurrent(rec)}
		if ev := rec.ev; ev != nil {
			p.usable = ev.valid && ev.seriesVer == rec.seriesVer && len(ev.corr) == (len(rec.series)+1)*len(ev.cands)
			p.cands, p.vers = slices.Clone(ev.cands), slices.Clone(ev.postVers)
		}
		out[oid] = p
	}
	return out
}

// checkPass holds every object's table against the reference after an
// M-step pass and classifies how the rebuilt ones were laid out.
func (cc *corrCases) checkPass(t *testing.T, e *Engine, before map[model.TagID]evBefore, pass int, stage string) {
	t.Helper()
	for _, oid := range e.objects {
		rec := e.tag(oid)
		ev := rec.ev
		if ev == nil || len(ev.cands) == 0 {
			continue
		}
		checkCorrTable(t, e, rec, ev, stage)
		cc.checked++
		if len(rec.series) == 0 {
			cc.empty++
		}
		for _, rd := range rec.series {
			if singleReader(rd.Mask) < 0 {
				cc.multi++
				break
			}
		}
		b := before[oid]
		if b.current {
			continue // not rebuilt this pass
		}
		if pass >= 2 {
			cc.second++
		}
		if !b.usable {
			continue
		}
		kept := 0
		for j, cid := range ev.cands {
			if c := slices.Index(b.cands, cid); c >= 0 && b.vers[c] == ev.postVers[j] {
				kept++
				if c == j {
					cc.inPlace++
				} else {
					cc.moved++
				}
			}
		}
		if kept > 0 && len(ev.cands) > len(b.cands) {
			cc.grown++
		}
		if kept > 0 && len(ev.cands) < len(b.cands) {
			cc.shrunk++
		}
	}
}

// runPasses is Run with the correction tables checked after every M-step
// pass: the same phases in the same order as infer and retire. The caller
// holds a twin engine driven by Run itself against it, so the sequence
// cannot drift from the real one unnoticed.
func (cc *corrCases) runPasses(t *testing.T, e *Engine, now model.Epoch) {
	t.Helper()
	pool := workpool.New(e.cfg.Workers)
	defer pool.Close()
	e.UsePool(pool)
	defer e.UsePool(nil)
	if now > e.now {
		e.now = now
	}
	e.runSeq++
	for rec := range e.allTags {
		rec.dropped = rec.dropped[:0]
	}
	e.buildCandidates()
	iters := 0
	for iters < e.cfg.MaxIters {
		iters++
		e.rebuildGroups()
		e.eStep()
		before := snapshotEvidence(e)
		changed := e.mStep()
		cc.checkPass(t, e, before, iters, fmt.Sprintf("Run at %d, pass %d", now, iters))
		if !changed {
			break
		}
	}
	e.iters = iters
	e.updateCriticalRegions()
	e.retire(now)
}

// reshuffle rewrites some objects' candidate lists over unchanged series
// and posteriors — two candidates swapped, a container appended, the last
// candidate dropped, one candidate's posterior version bumped — and runs
// one M-step pass, so every way a kept column can have to move is met
// whatever the simulated world produced.
func (cc *corrCases) reshuffle(t *testing.T, e *Engine) {
	t.Helper()
	pool := workpool.New(e.cfg.Workers)
	defer pool.Close()
	e.UsePool(pool)
	defer e.UsePool(nil)
	done := 0
	for _, oid := range e.objects {
		rec := e.tag(oid)
		if len(rec.cands) < 3 || len(rec.series) == 0 {
			continue
		}
		switch done % 4 {
		case 0:
			rec.cands[0], rec.cands[1] = rec.cands[1], rec.cands[0]
			rec.priorW[0], rec.priorW[1] = rec.priorW[1], rec.priorW[0]
		case 1:
			for _, cid := range e.containers {
				if !slices.Contains(rec.cands, cid) {
					rec.cands = append(rec.cands, cid)
					rec.priorW = append(rec.priorW, rec.priorDefault)
					break
				}
			}
		case 2:
			rec.cands = rec.cands[:len(rec.cands)-1]
			rec.priorW = rec.priorW[:len(rec.priorW)-1]
		case 3:
			e.tag(rec.cands[len(rec.cands)-1]).post.ver++
		}
		if done++; done == 16 {
			break
		}
	}
	before := snapshotEvidence(e)
	e.mStep()
	cc.checkPass(t, e, before, 1, "reshuffled lists")
}

// TestCorrTableMatchesSegments holds the M-step's dense correction table
// against the packed segments it replaced: after every M-step pass of every
// Run, every object's table, expanded reference segments and totals agree
// bit for bit, at one worker and at GOMAXPROCS — over the change-heavy
// warehouse with its straggler burst (kept columns at new positions), the
// overlap world (multi-reader masks), an object with candidates and no
// readings, reshuffled candidate lists (k ± 1) and a restored engine whose
// posteriors carry no cells. A twin engine driven by Run must end each Run
// in the same state as the checked one.
func TestCorrTableMatchesSegments(t *testing.T) {
	warehouse := sim.DefaultConfig()
	warehouse.Epochs = 1500
	warehouse.ItemsPerCase = 6
	warehouse.ShelfDwell = 200
	warehouse.AnomalyEvery = 20
	for _, world := range []struct {
		name     string
		cfg      sim.Config
		interval model.Epoch
	}{
		{"warehouse", warehouse, 100},
		{"overlap", overlapConfig(), 150},
	} {
		feed := newSimFeed(t, world.cfg)
		for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
			t.Run(fmt.Sprintf("%s/workers=%d", world.name, workers), func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.RecentHistory = 200
				cfg.Workers = workers
				e, twin := feed.engine(cfg), feed.engine(cfg)
				// An object with candidates and no readings at this site.
				const idle = model.TagID(1 << 20)
				seed := CollapsedState{Object: idle, Container: -1, DefaultWeight: -3}
				for _, cid := range e.containers[:3] {
					seed.Candidates = append(seed.Candidates, cid)
					seed.Weights = append(seed.Weights, -1)
				}
				e.ImportCollapsed(seed)
				twin.ImportCollapsed(seed)
				feed.rewind()

				var cc corrCases
				for now := world.interval; now <= feed.tr.Epochs; now += world.interval {
					feed.through(t, now, e, twin)
					if world.name == "warehouse" && now == 1300 {
						injectStragglers(t, now-2*world.interval, e, twin)
					}
					cc.runPasses(t, e, now-1)
					twin.Run(now - 1)
					if !reflect.DeepEqual(e.ExportState(), twin.ExportState()) {
						t.Fatalf("Run at %d: the checked sequence diverged from Run", now-1)
					}
				}
				cc.reshuffle(t, e)

				// A restored engine's posteriors carry no cells until its next
				// E-step; the direct dots the table falls back on must agree too.
				restored := feed.engine(cfg)
				if err := restored.ImportState(e.ExportState()); err != nil {
					t.Fatal(err)
				}
				s := restored.getScratch()
				noCells := 0
				for _, oid := range restored.objects {
					rec := restored.tag(oid)
					var ev objEvidence
					restored.scoreEvidence(&ev, rec, s)
					checkCorrTable(t, restored, rec, &ev, "restored")
					for _, cid := range ev.cands {
						if p := &restored.tag(cid).post; len(p.epochs) > 0 && p.cellsOrNil() == nil {
							noCells++
							break
						}
					}
				}
				scratches.Put(s)

				t.Logf("%+v, restored objects scored by direct dots: %d", cc, noCells)
				if cc.inPlace == 0 || cc.moved == 0 || cc.grown == 0 || cc.shrunk == 0 ||
					cc.empty == 0 || cc.second == 0 || noCells == 0 ||
					(world.name == "overlap" && cc.multi == 0) {
					t.Fatal("a table layout the test is for was never met; the comparison is vacuous")
				}
			})
		}
	}
}
