package rfinfer

import (
	"sync"

	"rfidtrack/internal/model"
	"rfidtrack/internal/workpool"
)

// scratch is one worker's reusable temporary storage for the inference hot
// path. Every buffer is grown on demand and kept across Runs, so the steady
// state allocates nothing.
type scratch struct {
	lq        []float64      // per-location log-score accumulator (E-step)
	cursors   []int          // per-series merge cursors (E- and M-step)
	epochs    []model.Epoch  // epoch-union builder
	epochsBuf []model.Epoch  // merge double buffer (swaps with union targets)
	epochs2   []model.Epoch  // dropped-epoch merge (memo refresh)
	series    []model.Series // member series gathered for one container
	posts     []*posterior   // hoisted candidate posteriors (M-step)
	uni       []float64      // own readings' mask means (M-step)
	maskRows  [][]float64    // own readings' delta rows (M-step)

	// Correction-table layout (M-step): each candidate's column in the
	// previous build, and the old rows kept columns are permuted from — one
	// row while the candidate count stands, the whole old table when it
	// changed.
	corrSrc []int
	corrOld []float64

	cr      crTable // window table (critical-region search, change-point test)
	readers []int   // own readings' single readers (M-step)

	// export is the evidence ExportCollapsed recomputes for an object whose
	// evidence went stale before its departure, kept so a stream of exports
	// reuses one table instead of building and dropping one each.
	export objEvidence

	// Candidate pruning (buildCandidates).
	counts   []int32       // per-container co-occurrence counts
	scored   []scoredCand  // scored candidates being ranked
	oldCands []model.TagID // the object's previous candidate list ...
	oldPrior []float64     // ... and its migrated weights

	// cpPrefix is the prefix view one change-point test hands
	// changepoint.Best (detectChanges).
	cpPrefix []float64
}

// intBuf returns a length-n int buffer backed by s.readers. Contents are
// unspecified; callers overwrite before reading.
func (s *scratch) intBuf(n int) []int {
	if cap(s.readers) < n {
		s.readers = make([]int, n)
	}
	s.readers = s.readers[:n]
	return s.readers
}

// maskRowRefs returns a length-n row-reference buffer backed by s.maskRows.
// Contents are unspecified; callers overwrite before reading.
func (s *scratch) maskRowRefs(n int) [][]float64 {
	if cap(s.maskRows) < n {
		s.maskRows = make([][]float64, n)
	}
	s.maskRows = s.maskRows[:n]
	return s.maskRows
}

// postRefs returns a length-n posterior-pointer buffer backed by s.posts.
func (s *scratch) postRefs(n int) []*posterior {
	if cap(s.posts) < n {
		s.posts = make([]*posterior, n)
	}
	s.posts = s.posts[:n]
	return s.posts
}

// floats returns a length-n float buffer backed by dst, growing it if
// needed. Contents are unspecified; callers overwrite before reading.
func (s *scratch) floats(dst *[]float64, n int) []float64 {
	buf := *dst
	if cap(buf) < n {
		buf = make([]float64, n)
	}
	buf = buf[:n]
	*dst = buf
	return buf
}

// ints returns a zeroed int buffer of length n backed by s.cursors.
func (s *scratch) ints(n int) []int {
	if cap(s.cursors) < n {
		s.cursors = make([]int, n)
	}
	s.cursors = s.cursors[:n]
	for i := range s.cursors {
		s.cursors[i] = 0
	}
	return s.cursors
}

// scratches recycles worker scratch across every engine in the process: a
// chunk borrows one for its duration, so the number alive tracks how many
// workers run inference at once — not engines × workers — and sync.Pool's
// per-P caching hands a worker back the scratch it used last.
var scratches = sync.Pool{New: func() any { return new(scratch) }}

// getScratch borrows a scratch with lq sized for this engine's locations.
// Return it with scratches.Put.
func (e *Engine) getScratch() *scratch {
	s := scratches.Get().(*scratch)
	s.floats(&s.lq, e.lik.N())
	return s
}

// How many consecutive items a worker claims at a time. Objects are many
// and cheap, and consecutive objects of one group share a candidate set, so
// they go in runs long enough to meet in the same posteriors' cache lines
// yet short enough that a few expensive ones cannot unbalance a phase.
// Containers are few and each carries a whole group's history.
const (
	objectChunk    = 8
	containerChunk = 1
)

// UsePool makes the engine run its parallel phases on p, a pool shared with
// whoever else was handed it (the cluster runtime hands every site engine
// and its own site loop the same one), instead of a private pool that lives
// for one Run and is sized by Config.Workers. nil restores the private pool.
func (e *Engine) UsePool(p *workpool.Pool) { e.pool = p }

// parallelFor runs fn(s, i) for every i in [0, n) on the pool of the Run
// in progress, claimed chunk items at a time. Which worker handles which
// item is scheduling-dependent — but each item's computation reads only
// state that is immutable during the phase and writes only state owned by
// that item, and every item is processed exactly once, so the merged
// result is bit-identical at any worker count (including 1, which runs
// inline on the caller).
func (e *Engine) parallelFor(n, chunk int, fn func(s *scratch, i int)) {
	e.pool.For(n, chunk, func(lo, hi int) {
		s := e.getScratch()
		for i := lo; i < hi; i++ {
			fn(s, i)
		}
		scratches.Put(s)
	})
}
