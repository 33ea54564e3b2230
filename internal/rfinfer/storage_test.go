package rfinfer

import (
	"fmt"
	"runtime"
	"testing"

	"rfidtrack/internal/model"
	"rfidtrack/internal/sim"
	"rfidtrack/internal/workpool"
)

// storageSlack is the constant of the storage bound: a series grows by
// append, whose next capacity from an exact-size backing rounds up to the
// allocator's size class.
const storageSlack = 16

// storageInterval is the Run interval of the storage test's stream.
const storageInterval = 100

// checkBuf requires one buffer to hold at most twice its length plus the
// slack.
func checkBuf[T any](t *testing.T, stage string, id model.TagID, what string, buf []T) {
	t.Helper()
	if cap(buf) > 2*len(buf)+storageSlack {
		t.Fatalf("%s: tag %d: %s holds %d entries for %d in use", stage, id, what, cap(buf), len(buf))
	}
}

// checkStorage holds every record's series, correction table and posterior
// arrays to the storage bound, and an emptied series to no backing at all.
func checkStorage(t *testing.T, e *Engine, stage string) {
	t.Helper()
	for rec := range e.allTags {
		if len(rec.series) == 0 && cap(rec.series) != 0 {
			t.Fatalf("%s: tag %d: emptied series keeps %d entries", stage, rec.id, cap(rec.series))
		}
		checkBuf(t, stage, rec.id, "series", rec.series)
		if ev := rec.ev; ev != nil {
			checkBuf(t, stage, rec.id, "correction table", ev.corr)
		}
		p := &rec.post
		checkBuf(t, stage, rec.id, "posterior epochs", p.epochs)
		checkBuf(t, stage, rec.id, "posterior rows", p.q)
		checkBuf(t, stage, rec.id, "evidence cells", p.cells)
		checkBuf(t, stage, rec.id, "unread evidence", p.qBase)
		checkBuf(t, stage, rec.id, "advantage prefix", p.prefAdv)
		checkBuf(t, stage, rec.id, "rank index", p.idx)
	}
	// The same bound in bytes: the slack counted in the widest entries, a
	// 16-byte reading, once per tag.
	if st := e.Stats(); st.StorageUsedBytes <= 0 || st.StorageBytes < st.StorageUsedBytes ||
		st.StorageBytes > 2*st.StorageUsedBytes+storageSlack*16*len(e.tags) {
		t.Fatalf("%s: RunStats storage %d held, %d used", stage, st.StorageBytes, st.StorageUsedBytes)
	}
}

// TestStorageFollowsHistory pins that memory follows the retained history:
// on a warehouse whose objects arrive, are read for a few hundred epochs and
// fall silent, under CR truncation, every record's series, correction table
// and posterior arrays hold at most about twice what they use after every
// Run, and a series truncation emptied holds nothing — however large the
// record's history once was. One silent object's table is also rebuilt in
// place over a kept column while holding far more than its need (the same
// series version and candidate count, one candidate rescored): the shrink
// must carry the kept column, which the reference segments check bit for
// bit. Under keepGrow's rule no table reaches a build that oversized, so
// the test hands it one.
func TestStorageFollowsHistory(t *testing.T) {
	world := sim.DefaultConfig()
	world.Epochs = 1500
	world.ItemsPerCase = 6
	world.ShelfDwell = 200
	feed := newSimFeed(t, world)
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.RecentHistory = 200
			cfg.Workers = workers
			e := feed.engine(cfg)
			feed.rewind()
			peak := make(map[model.TagID]int) // largest series each object had
			emptied, inPlace := 0, false
			for now := model.Epoch(storageInterval); now <= feed.tr.Epochs; now += storageInterval {
				feed.through(t, now, e)
				e.Run(now - 1)
				stage := fmt.Sprintf("Run at %d", now-1)
				checkStorage(t, e, stage)
				for _, oid := range e.objects {
					rec := e.tag(oid)
					peak[oid] = max(peak[oid], len(rec.series))
					if len(rec.series) == 0 && peak[oid] > 2*storageSlack {
						emptied++
					}
				}
				if !inPlace {
					inPlace = shrinkKeptInPlace(t, e, now-1, stage)
				}
			}
			if emptied == 0 || !inPlace {
				t.Fatalf("emptied records %d, in-place shrink met %v: the test is vacuous", emptied, inPlace)
			}
		})
	}
}

// shrinkKeptInPlace finds an object that fell silent before now whose
// evidence is current for its series and has at least two candidates, gives
// its correction table four times its need, moves its last candidate's
// posterior version and runs one M-step pass: the table must come back at
// its need with every column — kept and rescored — equal to the reference.
// It reports whether such an object was found.
func shrinkKeptInPlace(t *testing.T, e *Engine, now model.Epoch, stage string) bool {
	t.Helper()
	for _, oid := range e.objects {
		rec := e.tag(oid)
		ev, k := rec.ev, len(rec.cands)
		if len(rec.series) == 0 || rec.series.Last() >= now-storageInterval/2 || k < 2 || !e.evidenceCurrent(rec) {
			continue
		}
		need := len(ev.corr)
		ev.corr = append(make([]float64, 0, 4*need), ev.corr...)
		e.tag(rec.cands[k-1]).post.ver++
		pool := workpool.New(e.cfg.Workers)
		e.UsePool(pool)
		before := e.nSegReused.Load()
		e.mStep()
		e.UsePool(nil)
		pool.Close()
		if e.nSegReused.Load() == before {
			t.Fatalf("%s: object %d kept no column", stage, oid)
		}
		if cap(ev.corr) != need {
			t.Fatalf("%s: object %d: table holds %d entries for %d needed", stage, oid, cap(ev.corr), need)
		}
		checkCorrTable(t, e, rec, ev, stage+", in-place shrink")
		return true
	}
	return false
}
