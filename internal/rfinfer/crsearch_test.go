package rfinfer

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"testing"

	"rfidtrack/internal/model"
	"rfidtrack/internal/sim"
	"rfidtrack/internal/workpool"
)

// referenceCRSearch is the four-cursor critical-region search the window
// table replaced, kept as the reference the table is held against: per
// window and candidate, cursors that only move left — the posterior index
// at each window edge (ar: newest epoch <= t, al: newest epoch < t-w) —
// and the correction prefix at each edge, read as the M-step table's row at
// sort.Search over the object's own readings, and a window sum of two
// prefix differences, over an epoch union formed up front (here by sort
// and compact, sharing nothing with the merge under test). It reports the
// newest decisive window, if any.
func referenceCRSearch(e *Engine, rec *tagRec) (window, bool) {
	w := e.cfg.CRWindow
	ev := rec.ev
	k := len(ev.cands)
	posts := make([]*posterior, k)
	var epochs []model.Epoch
	for j, cid := range ev.cands {
		posts[j] = &e.tags[cid].post
		epochs = append(epochs, posts[j].epochs...)
	}
	for _, rd := range rec.series {
		epochs = append(epochs, rd.T)
	}
	slices.Sort(epochs)
	epochs = slices.Compact(epochs)
	n := len(epochs)
	own := rec.series
	// through returns how many own readings lie at or before t: the row of
	// the correction table that sums the corrections through t.
	through := func(t model.Epoch) int {
		return sort.Search(len(own), func(i int) bool { return own[i].T > t })
	}

	advR, advL := make([]int, k), make([]int, k)
	for j := 0; j < k; j++ {
		advR[j] = len(posts[j].epochs) - 1
		advL[j] = advR[j]
	}
	sums := make([]float64, k)
	for hi := n - 1; hi >= 0; hi-- {
		t := epochs[hi]
		tLo := t - w
		cR, cL := ev.corr[through(t)*k:], ev.corr[through(tLo-1)*k:]
		for j := 0; j < k; j++ {
			pe, pre := posts[j].epochs, posts[j].prefAdv
			ar, al := advR[j], advL[j]
			for ar >= 0 && pe[ar] > t {
				ar--
			}
			if al > ar {
				al = ar
			}
			for al >= 0 && pe[al] >= tLo {
				al--
			}
			sum := 0.0
			if ar > al {
				sum = pre[ar+1] - pre[al+1]
			}
			sum += cR[j]
			sum -= cL[j]
			sums[j] = sum
			advR[j], advL[j] = ar, al
		}
		best, second := -1e308, -1e308
		for _, v := range sums {
			if v > best {
				second = best
				best = v
			} else if v > second {
				second = v
			}
		}
		if best-second >= e.cfg.CRThreshold {
			lo := hi
			for lo > 0 && epochs[lo-1] >= t-w {
				lo--
			}
			return window{From: epochs[lo], To: t + 1}, true
		}
	}
	return window{}, false
}

// crChecker drives an engine Run by Run and, between the search and the
// truncation, holds every searched object's region against the reference.
type crChecker struct {
	searched, hits, noHits int
}

// run is e.Run(now) with the check in the middle.
func (c *crChecker) run(t *testing.T, e *Engine, now model.Epoch) {
	t.Helper()
	pool := workpool.New(e.cfg.Workers)
	defer pool.Close()
	e.UsePool(pool)
	defer e.UsePool(nil)

	before := make(map[model.TagID]window, len(e.objects))
	for _, oid := range e.objects {
		before[oid] = e.tags[oid].cr
	}
	e.infer(now)
	for _, oid := range e.objects {
		rec := e.tags[oid]
		want := before[oid]
		if ev := rec.ev; (e.noCarry || rec.evSeq == e.runSeq) && ev != nil &&
			len(ev.cands) >= 2 && len(ev.corr) == (len(rec.series)+1)*len(ev.cands) {
			c.searched++
			if cr, ok := referenceCRSearch(e, rec); ok {
				want = cr
				c.hits++
			} else {
				c.noHits++
			}
		}
		if rec.cr != want {
			t.Fatalf("Run at %d: object %d critical region %+v, reference %+v", now, oid, rec.cr, want)
		}
	}
	e.retire(now)
	if st := e.Stats(); st.CRSearchesNoHit > st.CRSearches || st.CRRowsBuilt < st.CRWindowsScanned ||
		(st.CRSearches > 0 && st.CRWindowsScanned == 0 && st.CRSearchesNoHit < st.CRSearches) {
		t.Fatalf("Run at %d: inconsistent search counters %+v", now, st)
	}
}

// require fails a comparison that never saw a hit, or — where the world is
// expected to produce them — a search that walked the whole history.
func (c *crChecker) require(t *testing.T, noHits bool) {
	t.Helper()
	if c.hits == 0 || (noHits && c.noHits == 0) {
		t.Fatalf("%d searches: %d hits, %d without; the comparison is vacuous", c.searched, c.hits, c.noHits)
	}
	t.Logf("%d searches held against the reference: %d hits, %d without", c.searched, c.hits, c.noHits)
}

// TestCRSearchMatchesReference holds the window-table search against the
// four-cursor search it replaced: after every Run, every searched object's
// critical region is the reference's, bit for bit, at one worker and at
// GOMAXPROCS.
//
//   - warehouse: the change-heavy world of TestPerCandidateMemoMatchesFresh
//     with its straggler burst, under TruncateCR — every Run truncates, so
//     refreshMemo re-anchors every advantage prefix between searches;
//   - overlap: every shelf scans every epoch, so own readings carry
//     multi-reader masks and neighbours are active together;
//   - own-only: a constructed world whose first Run (one EM iteration, so no
//     posterior has absorbed the objects yet) reads one object at epochs at
//     which none of its candidates is active — past both ends of their
//     history and in between — which no simulated world does: there the
//     object's epochs are its container's. The same world has an object
//     whose candidates' epochs extend past its own on both ends.
func TestCRSearchMatchesReference(t *testing.T) {
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		t.Run(fmt.Sprintf("warehouse/workers=%d", workers), func(t *testing.T) {
			simCfg := sim.DefaultConfig()
			simCfg.Epochs = 1500
			simCfg.ItemsPerCase = 6
			simCfg.ShelfDwell = 200
			simCfg.AnomalyEvery = 20
			feed := newSimFeed(t, simCfg)
			cfg := DefaultConfig()
			cfg.RecentHistory = 200
			cfg.Workers = workers
			e := feed.engine(cfg)
			const interval = 100
			var c crChecker
			for now := model.Epoch(interval); now <= feed.tr.Epochs; now += interval {
				feed.through(t, now, e)
				if now == 1300 {
					injectStragglers(t, now-2*interval, e)
				}
				c.run(t, e, now-1)
			}
			c.require(t, true)
		})
		t.Run(fmt.Sprintf("overlap/workers=%d", workers), func(t *testing.T) {
			feed := newSimFeed(t, overlapConfig())
			cfg := DefaultConfig()
			cfg.Workers = workers
			e := feed.engine(cfg)
			const interval = 150
			var c crChecker
			multi := false
			for now := model.Epoch(interval); now <= feed.tr.Epochs; now += interval {
				feed.through(t, now, e)
				c.run(t, e, now-1)
				for _, oid := range e.objects {
					for _, rd := range e.tags[oid].series {
						multi = multi || singleReader(rd.Mask) < 0
					}
				}
			}
			if !multi {
				t.Fatal("no object reading carries a multi-reader mask; the world does not test what it is for")
			}
			c.require(t, false)
		})
		t.Run(fmt.Sprintf("own-only/workers=%d", workers), func(t *testing.T) {
			ownOnlyWorld(t, workers)
		})
	}
}

// ownOnlyWorld is the constructed world of TestCRSearchMatchesReference.
// Readers 1 and 2 are neighbours. Containers 100 (under reader 1) and 101
// (under reader 2) are read at the even epochs of [20, 200), each now and
// then by the other's reader as well, which is what makes each a candidate
// of both objects. Object 1 rides with 100 but answers at the odd epochs of
// [0, 240) — never when a container does — and at every fourth epoch in
// between; object 2 rides with 101 and answers at every epoch of [80, 120].
func ownOnlyWorld(t *testing.T, workers int) {
	rates, err := model.UniformReadRates(4, 0.8, 0.2, 1e-6, func(r, a int) bool {
		d := r - a
		return d == 1 || d == -1
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.MaxIters = 1
	cfg.Workers = workers
	e := New(model.NewLikelihood(rates, model.AlwaysOn(4)), cfg)
	e.RegisterContainer(100)
	e.RegisterContainer(101)
	e.RegisterObject(1)
	e.RegisterObject(2)
	obs := func(ep model.Epoch, id model.TagID, readers ...model.Loc) {
		t.Helper()
		var m model.Mask
		for _, r := range readers {
			m = m.Set(r)
		}
		if err := e.ObserveMask(ep, id, m); err != nil {
			t.Fatal(err)
		}
	}
	feed := func(from, to model.Epoch) {
		for ep := from; ep < to; ep++ {
			if ep >= 20 && ep < 200 && ep%2 == 0 {
				switch ep % 8 {
				case 0:
					obs(ep, 100, 1, 2)
					obs(ep, 101, 2)
				case 4:
					obs(ep, 100, 1)
					obs(ep, 101, 2, 1)
				default:
					obs(ep, 100, 1)
					obs(ep, 101, 2)
				}
			}
			if ep%2 == 1 || (ep >= 20 && ep < 200 && ep%4 == 0) {
				obs(ep, 1, 1)
			}
			if ep >= 80 && ep <= 120 {
				obs(ep, 2, 2)
			}
		}
	}

	var c crChecker
	feed(0, 240)
	c.run(t, e, 239)

	// The first search must have met what the world was built for.
	for _, oid := range []model.TagID{1, 2} {
		if rec := e.tags[oid]; len(rec.cands) != 2 || rec.cr.empty() {
			t.Fatalf("object %d: candidates %v, critical region %+v; want both containers and a hit", oid, rec.cands, rec.cr)
		}
	}
	active := func(ep model.Epoch) bool {
		for _, cid := range []model.TagID{100, 101} {
			if _, ok := slices.BinarySearch(e.tags[cid].post.epochs, ep); ok {
				return true
			}
		}
		return false
	}
	if active(239) || active(101) || active(1) {
		t.Fatal("a container posterior covers an epoch only object 1 was read at; the own-series arm is not exercised")
	}
	if to := e.tags[1].cr.To; to <= 200 || active(to-1) {
		t.Fatalf("object 1's region ends at %d; want it to end on a reading past the containers' history, where no candidate is active", to)
	}
	first, last := e.tags[101].post.epochs[0], e.tags[101].post.epochs[len(e.tags[101].post.epochs)-1]
	if s := e.tags[2].series; !(first < s[0].T && last > s.Last()) {
		t.Fatalf("candidate epochs [%d, %d] do not extend past object 2's [%d, %d] on both ends", first, last, s[0].T, s.Last())
	}

	// Later Runs: the posteriors now carry the objects' epochs.
	feed(240, 300)
	c.run(t, e, 299)
	feed(300, 360)
	c.run(t, e, 359)
	if c.searched < 4 {
		t.Fatalf("only %d searches ran", c.searched)
	}
}

// TestCRSearchImportedWithoutPrefix pins the prefAdv contract. A migrated
// candidate id that this site knows as something other than a container
// never gets a posterior computed, so it has no advantage prefix at all —
// and must search like the empty posterior it stands for: no panic, and the
// same regions as on a site where the id is an idle container, whose
// posterior the E-step did compute (to nothing). Both import paths.
func TestCRSearchImportedWithoutPrefix(t *testing.T) {
	lik := testLik(t)
	objs, conts, readings := genWorkload(t, lik, 7, 200)
	src := New(lik, DefaultConfig())
	feedEngine(t, src, objs, conts, readings)
	src.Run(199)

	const foreign = model.TagID(77)
	for _, useCR := range []bool{false, true} {
		t.Run(fmt.Sprintf("cr=%v", useCR), func(t *testing.T) {
			run := func(foreignIsObject bool) *Engine {
				dst := New(lik, DefaultConfig())
				if foreignIsObject {
					dst.RegisterObject(foreign) // the id is taken: no container, no posterior
				}
				for _, oid := range objs {
					st, err := src.ExportCR(oid)
					if err != nil {
						t.Fatal(err)
					}
					st.Collapsed.Candidates = append(st.Collapsed.Candidates, foreign)
					st.Collapsed.Weights = append(st.Collapsed.Weights, st.Collapsed.DefaultWeight)
					if useCR {
						dst.ImportCR(st)
					} else {
						dst.ImportCollapsed(st.Collapsed)
					}
				}
				feedEngine(t, dst, objs, conts, readings)
				dst.Run(199)
				return dst
			}
			bare, computed := run(true), run(false)
			if p := &bare.tags[foreign].post; p.prefAdv != nil || bare.tags[foreign].isContainer {
				t.Fatal("the foreign candidate got a posterior; the test does not reach the nil prefix")
			}
			if p := &computed.tags[foreign].post; len(p.prefAdv) != 1 {
				t.Fatalf("the idle container's prefix has %d entries, want the origin alone", len(p.prefAdv))
			}
			hits := 0
			for _, oid := range objs {
				if !slices.Contains(bare.tags[oid].cands, foreign) {
					t.Fatalf("object %d dropped the foreign candidate: %v", oid, bare.tags[oid].cands)
				}
				fb, tb := bare.CriticalRegion(oid)
				fc, tc := computed.CriticalRegion(oid)
				if fb != fc || tb != tc {
					t.Fatalf("object %d: region [%d, %d) without a prefix, [%d, %d) with one", oid, fb, tb, fc, tc)
				}
				if tb > fb {
					hits++
				}
			}
			if bare.Stats().CRSearches == 0 || hits == 0 {
				t.Fatalf("%d searches, %d regions; nothing was compared", bare.Stats().CRSearches, hits)
			}
		})
	}
}
