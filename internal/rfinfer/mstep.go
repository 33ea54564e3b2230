package rfinfer

import (
	"slices"

	"rfidtrack/internal/model"
)

// objEvidence is what the last M-step pass left behind for one object: its
// candidates' co-location strengths (totals[k] is w_{c_k,o} of Eq 5,
// migrated prior weight included) and the per-epoch detail that
// change-point detection and the critical-region search read.
//
// The detail is a table, not a per-epoch matrix: a candidate's evidence
// splits into what its posterior already carries for every object (advSum,
// prefAdv, cells) and the object-specific rest, the corrections: one term
// per own read epoch the candidate is active at. They are stored as one dense
// row-major table of their running sums over the object's own readings —
// with m readings and k candidates, corr[c*k+j] is candidate j's
// corrections summed over the first c readings, c = 0..m, row 0 all +0.0.
// At a reading where a candidate is inactive its column carries the running
// sum unchanged. Together with the posteriors' prefAdv the table gives any
// candidate's evidence prefix at any evidence epoch, less the uniform
// evidence every candidate shares there (crTable): the critical-region
// search reads a window's excess off the rows of its two edges, and
// change-point detection reads its prefix view (changepoint.Best) off the
// rows from the last change point on, both in place.
//
// The build memoizes. The whole object is current while its series
// version, candidate list, prior weights and every candidate posterior's
// content version match the stamps below (evidenceCurrent). It also
// memoizes per candidate: a column is a function of (own series, that
// candidate's posterior) and of nothing else, so while seriesVer stands, a
// candidate — matched by id, wherever the pruning order now puts it — whose
// posterior still carries the stamped version keeps its column verbatim,
// and only the candidates whose posterior moved are scored again.
type objEvidence struct {
	cands  []model.TagID // owned copy (memo compares it against rec.cands)
	totals []float64
	// uniTotal is the score a hypothetical container with no co-location
	// history would have. It becomes the default prior of the collapsed
	// state. totals and uniTotal are comparable only against each other:
	// both leave out the object's uniform evidence sum, a common shift that
	// every consumer — best-candidate selection, CR margins, normalized
	// migration exports — is invariant to.
	uniTotal float64
	// scorable records whether the object has anything to score: an own
	// reading or a candidate posterior epoch. One with neither keeps its
	// current assignment.
	scorable bool

	// The correction table (see above): (len(series)+1)·len(cands)
	// entries, sized by keepGrow's rule.
	corr []float64

	// Memo stamps, taken at build time: the object's series version, each
	// candidate posterior's content version (aligned with cands), and the
	// prior weights. Within one Run's EM loop only posterior versions can
	// move, so later iterations rebuild evidence only for objects whose
	// candidates' groups actually changed — and only those candidates'
	// columns.
	valid     bool
	seriesVer uint32
	postVers  []uint32
	priorSnap []float64
	priorDef  float64
}

// singleReader returns the reader behind a single-reader mask, or -1 for an
// empty or multi-reader one.
func singleReader(m model.Mask) int {
	if m == 0 || m&(m-1) != 0 {
		return -1
	}
	return int(m.First())
}

// cellsOrNil returns the posterior's evidence cells, or nil when they are
// absent (a posterior restored from a snapshot and not yet recomputed).
func (p *posterior) cellsOrNil() []float64 {
	if len(p.cells) != len(p.q) {
		return nil
	}
	return p.cells
}

// scoreEvidence rescores an object's candidates into ev and reports how
// many candidates kept their correction column from the previous build.
// Each total decomposes as
//
//	w_o(c_k) = U_o + advSum_k + Σ_{t ∈ own ∩ active_k} (q_k(t)·δ(mask_t) − maskMean_t) + priorW_k
//
// where U_o (the object's uniform evidence summed over the whole epoch
// union) is common to every candidate and to uniTotal, advSum_k is the
// candidate posterior's cached object-independent advantage, and the sum —
// candidate k's corrections — runs over the object's own read epochs only.
// All consumers of totals are invariant to the common shift U_o
// (best-candidate selection, CR margins and change-point splits compare
// candidates; migration exports normalize by the max), so the build drops
// it and the union — the expensive merge — is never formed.
//
// Nothing in the sum is arithmetic the object has to do itself any more,
// and nothing in finding its terms is a search. The row of an own epoch in
// a candidate's posterior is one rank-index lookup (posterior.rowOf), which
// finds exactly the row the old walk of the posterior's epochs stopped on.
// For a single-reader mask q_k(t)·δ(r) is that row's cell r, computed once
// when the row was written and shared by every object, EM iteration and Run
// that meets the row; the direct dot remains for multi-reader masks (whose
// combined δ row is summed before the product, so the cells do not add up
// to the same bits) and for a posterior without cells. Each rescored column
// of the correction table is the running sum of those terms, in own-reading
// order, written where it lives: row c holds the sum through reading c, so
// at a reading where the candidate is inactive the row repeats the newest
// sum at or before it — +0.0 before the first — which is exactly the prefix
// the critical-region search's cursors used to find there.
//
// A column whose inputs stand — same own series, same posterior version —
// is not walked at all, and its total is re-added from its last row (advSum
// and the prior are added fresh; the last row is exactly the sum the walk
// would end on). Kept columns stay where they are when the candidate count
// and their positions stand — the usual case is one changed candidate among
// several. Otherwise they are permuted row by row: through a one-row
// temporary while the count is unchanged, from a copy of the old table when
// it changed.
func (e *Engine) scoreEvidence(ev *objEvidence, rec *tagRec, s *scratch) (reused int) {
	cands := rec.cands
	own := rec.series
	k, m := len(cands), len(own)
	// The previous build, read while the new one is laid out; its stamps are
	// replaced only at the end.
	oldCands, oldVers := ev.cands, ev.postVers
	if !ev.valid || ev.seriesVer != rec.seriesVer || len(ev.corr) != (m+1)*len(oldCands) {
		oldCands = nil
	}
	ev.valid = false
	ev.totals = ev.totals[:0]
	ev.uniTotal = 0
	ev.scorable = false
	if k == 0 {
		ev.cands = ev.cands[:0]
		ev.postVers = ev.postVers[:0]
		ev.corr = nil
		ev.priorSnap = ev.priorSnap[:0]
		ev.priorDef = rec.priorDefault
		ev.seriesVer = rec.seriesVer
		ev.valid = true
		return 0
	}
	ev.uniTotal = rec.priorDefault
	if cap(ev.totals) < k {
		ev.totals = make([]float64, k)
	}
	ev.totals = ev.totals[:k]

	posts := s.postRefs(k)
	for j, cid := range cands {
		posts[j] = &e.tag(cid).post
	}

	// src[j] is candidate j's column in the previous build, or -1 when it
	// has to be scored: new to the list, or its posterior moved since the
	// stamp. Lists are bounded by MaxCandidates, so a linear scan beats a
	// map.
	src := slices.Grow(s.corrSrc[:0], k)[:k]
	s.corrSrc = src
	moved := false
	for j, cid := range cands {
		c := j
		if j >= len(oldCands) || oldCands[j] != cid {
			c = slices.Index(oldCands, cid)
		}
		if c >= 0 && oldVers[c] != posts[j].ver {
			c = -1
		}
		src[j] = c
		if c >= 0 {
			reused++
			moved = moved || c != j
		}
	}
	moved = moved || (reused > 0 && len(oldCands) != k)

	// Lay the table out: kept columns where they belong, rows 0 zero.
	if moved {
		kOld := len(oldCands)
		var old []float64
		if kOld != k {
			old = append(s.corrOld[:0], ev.corr...)
			s.corrOld = old
			ev.corr = keepGrow(ev.corr, 0, (m+1)*k)[:(m+1)*k]
		} else {
			old = s.floats(&s.corrOld, k)
		}
		corr := ev.corr
		for c := 0; c <= m; c++ {
			row, from := corr[c*k:(c+1)*k], old
			if kOld == k {
				copy(old, row)
			} else {
				from = old[c*kOld : (c+1)*kOld]
			}
			for j, sc := range src {
				if sc >= 0 {
					row[j] = from[sc]
				}
			}
		}
	} else {
		// In place: a kept column already sits where it belongs, so a table
		// resized here must carry the whole old table with it; with nothing
		// kept it may start from nothing.
		keep := 0
		if reused > 0 {
			keep = (m + 1) * k
		}
		ev.corr = keepGrow(ev.corr, keep, (m+1)*k)[:(m+1)*k]
	}
	corr := ev.corr
	clear(corr[:k])

	// Rescore the rest, each column in one pass over the own readings.
	var means []float64
	var rows [][]float64
	var readers []int
	prepared := false
	scorable := m > 0
	for j, post := range posts {
		if len(post.epochs) > 0 {
			scorable = true
		}
		if src[j] >= 0 {
			continue
		}
		if !prepared {
			prepared = true
			// The object's own delta rows, their means and single readers,
			// aligned with rec.series (MaskDelta rows are cache-owned and
			// stable, so holding them is safe).
			means = s.floats(&s.uni, m)
			rows = s.maskRowRefs(m)
			readers = s.intBuf(m)
			for i, rd := range own {
				rows[i], means[i] = e.lik.MaskDelta(rd.Mask)
				readers[i] = singleReader(rd.Mask)
			}
		}
		pQ, pn, pCells := post.q, post.n, post.cellsOrNil()
		pIdx, pBase := post.idx, int64(post.idxBase)
		acc := 0.0
		for oi, rd := range own {
			var i int // post.rowOf(rd.T), inlined
			if d := uint(int64(rd.T) - pBase); d>>6<<1 < uint(len(pIdx)) {
				w := d >> 6 << 1
				i = indexRow(pIdx[w], pIdx[w+1], d&63)
			} else {
				i = post.rowOutside(rd.T)
			}
			if i >= 0 {
				if row := rows[oi]; row != nil {
					var d float64
					if r := readers[oi]; r >= 0 && pCells != nil {
						d = pCells[i*pn+r]
					} else {
						d = dot(pQ[i*pn:(i+1)*pn], row)
					}
					acc += d - means[oi]
				}
			}
			corr[(oi+1)*k+j] = acc
		}
	}
	last := corr[m*k : (m+1)*k]
	for j, post := range posts {
		ev.totals[j] = post.advSum + last[j] + rec.priorW[j]
	}
	ev.scorable = scorable

	// Stamp the memo.
	ev.cands = append(ev.cands[:0], cands...)
	ev.postVers = ev.postVers[:0]
	for j := range cands {
		ev.postVers = append(ev.postVers, posts[j].ver)
	}
	ev.seriesVer = rec.seriesVer
	ev.priorSnap = append(ev.priorSnap[:0], rec.priorW...)
	ev.priorDef = rec.priorDefault
	ev.valid = true
	return reused
}

// evidenceCurrent reports whether rec.ev is still exact: every input it
// was computed from (series, candidates, priors, candidate
// posteriors) is unchanged since then.
func (e *Engine) evidenceCurrent(rec *tagRec) bool {
	ev := rec.ev
	if ev == nil || !ev.valid || ev.seriesVer != rec.seriesVer ||
		ev.priorDef != rec.priorDefault ||
		!slices.Equal(ev.cands, rec.cands) ||
		!slices.Equal(ev.priorSnap, rec.priorW) {
		return false
	}
	for k, cid := range rec.cands {
		if e.tag(cid).post.ver != ev.postVers[k] {
			return false
		}
	}
	return true
}

// bestCandidate returns the index of the best-scoring candidate (ties break
// toward the lower tag id), or -1 when the object has no scorable evidence.
func bestCandidate(ev *objEvidence) int {
	if len(ev.cands) == 0 || !ev.scorable {
		return -1
	}
	best := 0
	for k := 1; k < len(ev.cands); k++ {
		if ev.totals[k] > ev.totals[best] ||
			(ev.totals[k] == ev.totals[best] && ev.cands[k] < ev.cands[best]) {
			best = k
		}
	}
	return best
}

// mStep recomputes evidence for every object in parallel and then, in
// deterministic object order, reassigns each object to its best-scoring
// candidate container (lines 12-20 of Algorithm 1). Each object's decision
// depends only on the posteriors fixed by the preceding E-step, so the
// fan-out cannot change the outcome. It reports whether any assignment
// changed. The per-object evidence stays in rec.ev for change-point
// detection and critical-region search.
func (e *Engine) mStep() bool {
	noCarry := e.noCarry
	e.parallelFor(len(e.objects), objectChunk, func(s *scratch, i int) {
		rec := e.tag(e.objects[i])
		if noCarry && rec.ev != nil {
			rec.ev.valid = false // reference mode: every pass scores from nothing
		}
		if e.evidenceCurrent(rec) {
			e.nEvSkipped.Add(1)
		} else {
			if rec.ev == nil {
				rec.ev = &objEvidence{}
			}
			reused := e.scoreEvidence(rec.ev, rec, s)
			rec.evSeq = e.runSeq
			e.nEvComputed.Add(1)
			e.nSegReused.Add(int64(reused))
			e.nSegComputed.Add(int64(len(rec.cands) - reused))
		}
		rec.bestK = bestCandidate(rec.ev)
	})
	changed := false
	for _, oid := range e.objects {
		rec := e.tag(oid)
		if rec.bestK < 0 {
			continue
		}
		if c := rec.ev.cands[rec.bestK]; c != rec.container {
			rec.container = c
			changed = true
		}
	}
	return changed
}

// rebuildGroups refreshes every container's member list (the inverse of the
// current containment estimate) in place. Objects are walked in sorted id
// order, so each member list comes out sorted without further work.
func (e *Engine) rebuildGroups() {
	for _, cid := range e.containers {
		rec := e.tag(cid)
		rec.groupNow = rec.groupNow[:0]
	}
	for _, oid := range e.objects {
		c := e.tag(oid).container
		if c < 0 {
			continue
		}
		if crec := e.tag(c); crec != nil && crec.isContainer {
			crec.groupNow = append(crec.groupNow, oid)
		}
	}
}

// EvidenceSeries exposes an object's point evidence of co-location against
// each candidate container (Eq 7) at every evidence epoch, oldest first,
// recomputed from the current posteriors. It is the diagnostic behind
// Figure 4: cumulative evidence is the running sum of each row. A point is
// the step between consecutive rows of the window table the critical-region
// search reads, plus the uniform evidence the table leaves out (the epoch's
// uniform base and the mean of the object's own mask there). The slices are
// freshly allocated.
func (e *Engine) EvidenceSeries(oid model.TagID) (cands []model.TagID, epochs []model.Epoch, point [][]float64) {
	rec := e.tag(oid)
	if rec == nil || rec.isContainer {
		return nil, nil, nil
	}
	// Score into a throwaway: rec.ev is M-step-owned.
	var ev objEvidence
	s := e.getScratch()
	defer scratches.Put(s)
	e.scoreEvidence(&ev, rec, s)
	k, own := len(ev.cands), rec.series
	tb, n := &s.cr, 0
	if k > 0 {
		tb.reset(e, &ev, own)
		tb.extend(crExhausted, own) // everything, down to the closing row
		n = len(tb.rows) - 1
	}
	epochs = make([]model.Epoch, n)
	point = make([][]float64, k)
	for j := range point {
		point[j] = make([]float64, n)
	}
	for i := range epochs {
		g := n - 1 - i // the table is newest first; row g+1 is the one before
		row, prev := tb.rows[g], tb.rows[g+1]
		t := model.Epoch(row.t)
		epochs[i] = t
		u := e.lik.UniformBase(t)
		if c := row.own; c > 0 && own[c-1].T == t {
			_, mean := e.lik.MaskDelta(own[c-1].Mask)
			u += mean
		}
		advG, advP := tb.adv[g*k:(g+1)*k], tb.adv[(g+1)*k:(g+2)*k]
		corrG, corrP := ev.corr[int(row.own)*k:][:k], ev.corr[int(prev.own)*k:][:k]
		for j := range point {
			point[j][i] = ((advG[j] - advP[j]) + (corrG[j] - corrP[j])) + u
		}
	}
	return append([]model.TagID(nil), ev.cands...), epochs, point
}
