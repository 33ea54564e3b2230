package rfinfer

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"

	"rfidtrack/internal/model"
	"rfidtrack/internal/workpool"
)

// feedMaxEpoch is dist.MaxEpoch (which this package cannot import): the
// highest epoch a Feed hands an engine.
const feedMaxEpoch = model.Epoch(1) << 30

// checkIndexLookups holds rank and rowOf against sort.Search over the
// epochs at every epoch, its neighbours, every word boundary of a dense
// index and the far ends.
func checkIndexLookups(t *testing.T, p *posterior, name string) {
	t.Helper()
	probe := []model.Epoch{epochMin, epochMin + 1, -1, 0, 1, epochMax - 1, epochMax}
	for _, ep := range p.epochs {
		probe = append(probe, ep-1, ep, ep+1)
	}
	if len(p.idx) > 0 {
		for b := int64(p.epochs[0]) - 64; b <= int64(p.epochs[len(p.epochs)-1])+64; b += 64 {
			for _, d := range []int64{-1, 0, 63} {
				if v := b + d; v >= int64(epochMin) && v <= int64(epochMax) {
					probe = append(probe, model.Epoch(v))
				}
			}
		}
	}
	for _, ep := range probe {
		want := sort.Search(len(p.epochs), func(i int) bool { return p.epochs[i] > ep })
		if got := p.rank(ep); got != want {
			t.Fatalf("%s: rank(%d) = %d, sort.Search %d", name, ep, got, want)
		}
		row := -1
		if want > 0 && p.epochs[want-1] == ep {
			row = want - 1
		}
		if got := p.rowOf(ep); got != row {
			t.Fatalf("%s: rowOf(%d) = %d, want %d", name, ep, got, row)
		}
	}
}

// TestEpochIndexRank pins the posterior's rank index against sort.Search:
// randomized epoch sets, epochs on word boundaries, a single epoch, no
// epochs, epochs at the top of the Feed's range and of the type's, gaps of
// thousands of epochs — and the two ways out of a dense index, a span too
// thin for one and epochs out of order, which must leave the index empty
// and the lookups exact (or, out of order, merely safe).
func TestEpochIndexRank(t *testing.T) {
	cases := map[string][]model.Epoch{
		"empty":           nil,
		"single":          {17},
		"word edges":      {0, 63, 64, 65, 127, 128, 191},
		"edges from 1":    {1, 64, 65, 66, 129},
		"near MaxEpoch":   {feedMaxEpoch - 130, feedMaxEpoch - 65, feedMaxEpoch - 64, feedMaxEpoch - 1},
		"near epochMax":   {epochMax - 200, epochMax - 64, epochMax - 1, epochMax},
		"negative":        {epochMin, epochMin + 1, epochMin + 64},
		"thousands apart": {5, 4000, 4001, 9000, 15000, 15063, 15064},
	}
	// Random sets: runs of epochs one to three apart, broken by gaps of
	// thousands; the few whose gaps outweigh their epochs search instead.
	rng := rand.New(rand.NewPCG(7, 9))
	dense := 0
	for trial := 0; trial < 200; trial++ {
		var eps []model.Epoch
		ep := model.Epoch(rng.IntN(1 << 20))
		for n := rng.IntN(600); n > 0; n-- {
			eps = append(eps, ep)
			switch rng.IntN(20) {
			case 0:
				ep += model.Epoch(1000 + rng.IntN(4000))
			default:
				ep += model.Epoch(1 + rng.IntN(3))
			}
		}
		p := &posterior{epochs: eps}
		p.reindex()
		if len(p.idx) > 0 {
			dense++
		}
		checkIndexLookups(t, p, fmt.Sprintf("random %d", trial))
	}
	if dense < 150 {
		t.Fatalf("only %d of 200 random sets indexed densely", dense)
	}
	for name, eps := range cases {
		p := &posterior{epochs: eps}
		p.reindex()
		if len(eps) > 0 && len(p.idx) == 0 {
			t.Fatalf("%s: %d epochs over a span of %d left no dense index", name, len(eps), eps[len(eps)-1]-eps[0])
		}
		checkIndexLookups(t, p, name)
	}

	// Too thin for a dense index: the words would outnumber the epochs many
	// times over, so the index stays empty and lookups search.
	sparse := &posterior{epochs: []model.Epoch{0, 5, feedMaxEpoch - 1}}
	sparse.reindex()
	if len(sparse.idx) != 0 {
		t.Fatalf("a 3-epoch posterior spanning %d epochs built %d index words", feedMaxEpoch, len(sparse.idx)/2)
	}
	checkIndexLookups(t, sparse, "sparse")

	// Out of order (a corrupt snapshot): no index, and no panic.
	for _, eps := range [][]model.Epoch{{10, 5, 20}, {10, 10, 11}, {30, 40, 35}} {
		p := &posterior{epochs: eps, idx: []uint64{1, 0}}
		p.reindex()
		if len(p.idx) != 0 {
			t.Fatalf("epochs %v out of order built an index", eps)
		}
		for _, ep := range []model.Epoch{0, 5, 10, 11, 20, 35, 40, 41} {
			p.rank(ep)
			p.rowOf(ep)
		}
	}
}

// checkEngineIndexes requires every container posterior's rank index to be
// the one its current epochs build, and its lookups exact.
func checkEngineIndexes(t *testing.T, e *Engine, stage string) {
	t.Helper()
	for _, cid := range e.containers {
		p := &e.tag(cid).post
		fresh := posterior{epochs: slices.Clone(p.epochs)}
		fresh.reindex()
		if !slices.Equal(p.idx, fresh.idx) || (len(fresh.idx) > 0 && p.idxBase != fresh.idxBase) {
			t.Fatalf("%s: container %d: index over %d epochs is stale (%d words at %d, fresh %d at %d)",
				stage, cid, len(p.epochs), len(p.idx)/2, p.idxBase, len(fresh.idx)/2, fresh.idxBase)
		}
		if slices.IsSorted(p.epochs) {
			checkIndexLookups(t, p, fmt.Sprintf("%s: container %d", stage, cid))
		}
	}
}

// TestEpochIndexRankEngine holds every container's index to its epochs
// wherever posterior epochs change: after every Run of a truncating engine
// (E-step recompute and memo compaction), after a memo refresh that aborts
// midway through its compaction, after ImportState, and after a restore
// that resets a malformed posterior.
func TestEpochIndexRankEngine(t *testing.T) {
	feed := newSimFeed(t, overlapConfig())
	cfg := DefaultConfig()
	cfg.RecentHistory = 250
	e := feed.engine(cfg)
	firstEpoch := func() model.Epoch {
		lo := epochMax
		for _, cid := range e.containers {
			if p := &e.tag(cid).post; len(p.epochs) > 0 && p.epochs[0] < lo {
				lo = p.epochs[0]
			}
		}
		return lo
	}
	var start model.Epoch
	for now := model.Epoch(150); now <= 900; now += 150 {
		feed.through(t, now, e)
		e.Run(now - 1)
		checkEngineIndexes(t, e, fmt.Sprintf("Run at %d", now-1))
		if now == 300 {
			start = firstEpoch()
		}
	}
	if firstEpoch() <= start {
		t.Fatal("truncation never compacted a posterior; the refresh path is not exercised")
	}

	// A memo refresh that meets an epoch its posterior never covered stops
	// partway through compacting; the index must still describe the rows.
	pool := workpool.New(1)
	e.UsePool(pool)
	feed.through(t, 1050, e)
	e.infer(1049)
	aborted := model.TagID(-1)
	for _, cid := range e.containers {
		rec := e.tag(cid)
		if !rec.postValid || len(rec.group) == 0 || len(rec.post.epochs) < 2 {
			continue
		}
		// An epoch inside the history truncation keeps that no member was
		// read at.
		gap := model.Epoch(-1)
		for ep := model.Epoch(1049); ep > 1049-cfg.RecentHistory; ep-- {
			if _, ok := slices.BinarySearch(rec.post.epochs, ep); !ok {
				gap = ep
				break
			}
		}
		if gap < 0 {
			continue
		}
		m := e.tag(rec.group[0])
		m.series.AddMask(gap, 1)
		aborted = cid
		break
	}
	if aborted < 0 {
		t.Fatal("no container with a group to corrupt")
	}
	e.retire(1049)
	e.UsePool(nil)
	pool.Close()
	if e.tag(aborted).postValid {
		t.Fatal("the memo refresh did not abort; the path is not exercised")
	}
	checkEngineIndexes(t, e, "aborted refresh")

	restored := feed.engine(cfg)
	st := e.ExportState()
	if err := restored.ImportState(st); err != nil {
		t.Fatal(err)
	}
	checkEngineIndexes(t, restored, "ImportState")

	// A malformed posterior is reset rather than indexed.
	reset := -1
	for i := range st.Containers {
		if len(st.Containers[i].Post.Epochs) > 0 {
			st.Containers[i].Post.QBase = st.Containers[i].Post.QBase[1:]
			reset = i
			break
		}
	}
	if reset < 0 {
		t.Fatal("no posterior to malform")
	}
	if err := restored.ImportState(st); err != nil {
		t.Fatal(err)
	}
	if p := &restored.tag(st.Containers[reset].ID).post; len(p.epochs) != 0 || len(p.idx) != 0 {
		t.Fatalf("malformed posterior kept %d epochs, %d index words", len(p.epochs), len(p.idx)/2)
	}
	checkEngineIndexes(t, restored, "posterior reset")
	feed.through(t, 1200, restored)
	restored.Run(1199)
	checkEngineIndexes(t, restored, "restored then Run")
}
