package rfinfer

import (
	"slices"
	"testing"

	"rfidtrack/internal/model"
	"rfidtrack/internal/workpool"
)

// flattenSorted is the co-occurrence index the slow way: every container
// reading, comparison-sorted by (t, ci).
func flattenSorted(e *Engine) []contRead {
	var reads []contRead
	for ci, cid := range e.containers {
		for _, rd := range e.tags[cid].series {
			reads = append(reads, contRead{t: rd.T, ci: int32(ci), mask: rd.Mask})
		}
	}
	slices.SortFunc(reads, func(a, b contRead) int {
		if a.t != b.t {
			return int(a.t) - int(b.t)
		}
		return int(a.ci) - int(b.ci)
	})
	return reads
}

// scanCounts is the linear scan pruneCandidates used to do: one cursor over
// the whole sorted index, skipping every reading at an epoch the object was
// not read at.
func scanCounts(e *Engine, rec *tagRec, reads []contRead) []int32 {
	counts := make([]int32, len(e.containers))
	ri := 0
	for _, rd := range rec.series {
		for ri < len(reads) && reads[ri].t < rd.T {
			ri++
		}
		for j := ri; j < len(reads) && reads[j].t == rd.T; j++ {
			if reads[j].mask&rd.Mask != 0 {
				counts[reads[j].ci]++
			}
		}
	}
	return counts
}

// scanPrune is candidate pruning on top of scanCounts, written out plainly:
// rank the co-located containers by count then id, append the previous
// candidates and the current assignment unranked, cut at MaxCandidates but
// never the assignment or a migrated weight above the default. It returns
// the lists pruneCandidates must arrive at, without touching rec.
func scanPrune(e *Engine, rec *tagRec, counts []int32) (cands []model.TagID, priorW []float64) {
	type scored struct {
		id model.TagID
		n  int32
	}
	var list []scored
	for ci, n := range counts {
		if n > 0 {
			list = append(list, scored{e.containers[ci], n})
		}
	}
	for _, id := range append(slices.Clone(rec.cands), rec.container) {
		if id >= 0 && !slices.ContainsFunc(list, func(s scored) bool { return s.id == id }) {
			list = append(list, scored{id: id})
		}
	}
	slices.SortStableFunc(list, func(a, b scored) int {
		if a.n != b.n {
			return int(b.n) - int(a.n)
		}
		return int(a.id) - int(b.id)
	})
	prior := func(id model.TagID) (float64, bool) {
		if i := slices.Index(rec.cands, id); i >= 0 {
			return rec.priorW[i], true
		}
		return 0, false
	}
	for i, s := range list {
		w, migrated := prior(s.id)
		if max := e.cfg.MaxCandidates; max > 0 && i >= max &&
			s.id != rec.container && !(migrated && w > rec.priorDefault) {
			continue
		}
		if !migrated {
			w = rec.priorDefault
		}
		cands, priorW = append(cands, s.id), append(priorW, w)
	}
	return cands, priorW
}

// checkPruneAgainstScan runs one candidate build and holds it against the
// scan: every epoch the index is asked for answers with exactly the scan's
// readings, every object's counts through the index are the scan's, and the
// candidate lists and prior weights the build leaves are the scan's.
func checkPruneAgainstScan(t *testing.T, e *Engine, stage string) {
	t.Helper()
	reads := flattenSorted(e)
	type lists struct {
		cands  []model.TagID
		priorW []float64
		counts []int32
	}
	want := make(map[model.TagID]lists)
	for _, oid := range e.objects {
		rec := e.tags[oid]
		counts := scanCounts(e, rec, reads)
		cands, priorW := scanPrune(e, rec, counts)
		want[oid] = lists{cands, priorW, counts}
	}

	pool := workpool.New(1)
	defer pool.Close()
	e.UsePool(pool)
	defer e.UsePool(nil)
	e.buildCandidates()

	if !slices.Equal(e.cont.reads, reads) {
		t.Fatalf("%s: the index holds %d readings in an order the comparison sort does not produce", stage, len(e.cont.reads))
	}
	// Every epoch anyone was read at, its neighbours, and the far ends.
	probe := []model.Epoch{epochMin, -1, 0, epochMax}
	for rec := range e.allTags {
		for _, rd := range rec.series {
			probe = append(probe, rd.T-1, rd.T, rd.T+1)
		}
	}
	for _, ep := range probe {
		var scan []contRead
		for _, r := range reads {
			if r.t == ep {
				scan = append(scan, r)
			}
		}
		if got := e.cont.at(ep); !slices.Equal(got, scan) {
			t.Fatalf("%s: index at epoch %d: %v, scan %v", stage, ep, got, scan)
		}
	}
	for _, oid := range e.objects {
		rec, w := e.tags[oid], want[oid]
		counts := make([]int32, len(e.containers))
		for _, rd := range rec.series {
			for _, cr := range e.cont.at(rd.T) {
				if cr.mask&rd.Mask != 0 {
					counts[cr.ci]++
				}
			}
		}
		if !slices.Equal(counts, w.counts) {
			t.Fatalf("%s: object %d co-occurrence counts %v, scan %v", stage, oid, counts, w.counts)
		}
		if !slices.Equal(rec.cands, w.cands) || !slices.Equal(rec.priorW, w.priorW) {
			t.Fatalf("%s: object %d candidates %v weights %v, scan %v %v", stage, oid, rec.cands, rec.priorW, w.cands, w.priorW)
		}
	}
}

// TestPruneIndexMatchesScan holds the epoch-indexed candidate pruning
// against the linear scan it replaced, on the shapes the index has to get
// right: one epoch per bucket (the counting sort's table as it falls out),
// coarse buckets for epochs spread too thin for that, own readings before
// the index's first epoch and past its last, an empty epoch between two
// populated ones, an index of one reading and of none, builds after an
// object change and after a container change, and objects without a reading
// that hold imported candidates, an assignment, or neither (the last is the
// one pruning returns early for).
func TestPruneIndexMatchesScan(t *testing.T) {
	lik := testLik(t)
	conts := []model.TagID{100, 101, 102, 103}
	objs := []model.TagID{1, 2, 3}
	newEngine := func(maxCands int) (*Engine, func(model.Epoch, model.TagID, ...model.Loc)) {
		cfg := DefaultConfig()
		cfg.MaxCandidates = maxCands
		e := New(lik, cfg)
		for _, c := range conts {
			e.RegisterContainer(c)
		}
		for _, o := range objs {
			e.RegisterObject(o)
		}
		obs := func(ep model.Epoch, id model.TagID, readers ...model.Loc) {
			t.Helper()
			for _, r := range readers {
				if err := e.Observe(ep, id, r); err != nil {
					t.Fatal(err)
				}
			}
		}
		return e, obs
	}
	// dense fills epochs [10, 60] with container readings — none at 30..32 —
	// and reads the objects from 0 to 70: below, inside, in the gap, above.
	dense := func(obs func(model.Epoch, model.TagID, ...model.Loc)) {
		for ep := model.Epoch(10); ep <= 60; ep++ {
			if ep >= 30 && ep <= 32 {
				continue
			}
			for i, c := range conts {
				if (int(ep)+i)%3 != 0 {
					obs(ep, c, model.Loc(i%2), model.Loc(2+i%2))
				}
			}
		}
		for ep := model.Epoch(0); ep <= 70; ep++ {
			obs(ep, 1, 0)
			if ep%6 == 0 {
				obs(ep, 2, 1, 3)
			}
			if ep%2 == 1 {
				obs(ep, 3, 2)
			}
		}
	}

	t.Run("dense", func(t *testing.T) {
		for _, maxCands := range []int{8, 2} {
			e, obs := newEngine(maxCands)
			// Migrated candidates: one with a weight worth protecting, one
			// without, and a weight on a container that also co-occurs.
			e.ImportCollapsed(CollapsedState{
				Object: 2, Container: 103,
				Candidates: []model.TagID{102, 101, 100}, Weights: []float64{-1, -9, -2}, DefaultWeight: -5,
			})
			// Objects never read here: one with imported candidates, one
			// with only an assignment, one with neither.
			e.ImportCollapsed(CollapsedState{
				Object: 4, Container: -1,
				Candidates: []model.TagID{101, 103}, Weights: []float64{-3, -7}, DefaultWeight: -4,
			})
			e.RegisterObject(5)
			e.tags[5].container = 102
			e.RegisterObject(6)
			dense(obs)
			checkPruneAgainstScan(t, e, "first build")
			if e.cont.shift != 0 || int(e.cont.lo) != 10 || len(e.cont.off) != 52 {
				t.Fatalf("index lo %d shift %d, %d offsets; want one bucket per epoch of [10, 60]", e.cont.lo, e.cont.shift, len(e.cont.off))
			}

			// An object-only change, then a container change.
			obs(71, 1, 0)
			obs(33, 3, 1)
			e.tags[2].container = 100
			checkPruneAgainstScan(t, e, "object change")
			obs(31, 101, 0)
			checkPruneAgainstScan(t, e, "container change")
			if got := e.tags[4].cands; len(got) != 2 {
				t.Fatalf("object 4 candidates %v, want its two imported ones kept", got)
			}
			if got := e.tags[6].cands; len(got) != 0 {
				t.Fatalf("object 6 candidates %v, want none", got)
			}
		}
	})
	t.Run("coarse", func(t *testing.T) {
		e, obs := newEngine(8)
		dense(obs)
		// Two far outliers push the span past 4·len+1024: buckets now hold
		// many epochs each. An object is read at one outlier, next to the
		// other, and in the empty stretch between.
		obs(3_000_000, 100, 0)
		obs(9_000_000, 102, 1)
		obs(3_000_000, 1, 0)
		obs(6_000_000, 1, 0)
		obs(8_999_999, 1, 1)
		obs(9_000_000, 2, 1)
		checkPruneAgainstScan(t, e, "coarse buckets")
		if e.cont.shift == 0 {
			t.Fatalf("span %d over %d readings still got one bucket per epoch", 9_000_000-10, len(e.cont.reads))
		}
		multi := false
		for b := 0; b+1 < len(e.cont.off); b++ {
			seg := e.cont.reads[e.cont.off[b]:e.cont.off[b+1]]
			multi = multi || (len(seg) > 0 && seg[0].t != seg[len(seg)-1].t)
		}
		if !multi {
			t.Fatal("no bucket holds more than one epoch; the bisection is not exercised")
		}
	})
	t.Run("tiny", func(t *testing.T) {
		e, obs := newEngine(8)
		obs(5, 1, 0)
		obs(6, 2, 1)
		checkPruneAgainstScan(t, e, "no container reading")
		obs(6, 101, 1)
		checkPruneAgainstScan(t, e, "one container reading")
		if got := e.tags[2].cands; !slices.Equal(got, []model.TagID{101}) {
			t.Fatalf("object 2 candidates %v, want the one container it was read with", got)
		}
	})
}
