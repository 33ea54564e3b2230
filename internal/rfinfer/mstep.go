package rfinfer

import (
	"slices"

	"rfidtrack/internal/model"
)

// objEvidence is what the last M-step pass left behind for one object: its
// candidates' co-location strengths (totals[k] is w_{c_k,o} of Eq 5,
// migrated prior weight included) and the per-epoch detail the later phases
// read. Which detail depends on the engine's evidence mode.
//
// Matrix mode (fullEvidence: change-point detection, Δ collection) holds the
// point-evidence matrix over the union of the object's own read epochs and
// its candidates' active epochs — row(k)[i] is e_{c_k,o}(epochs[i]) of Eq 7
// — in one contiguous backing array reused across Runs.
//
// Fast mode (the serving default) holds no matrix. A candidate's evidence
// splits into what its posterior already carries for every object (advSum,
// prefAdv, cells) and the object-specific rest, the corrections: one term
// per own read epoch the candidate is active at. They are stored as one
// dense row-major table of their running sums over the object's own
// readings — with m readings and k candidates, corr[c*k+j] is candidate j's
// corrections summed over the first c readings, c = 0..m, row 0 all +0.0 —
// so the critical-region search reads any window's evidence excess off the
// rows of its two edges, in place, as two subtractions. At a reading where a
// candidate is inactive its column carries the running sum unchanged.
//
// Both modes memoize. The whole object is current while its series version,
// candidate list, prior weights and every candidate posterior's content
// version match the stamps below (evidenceCurrent). Fast mode additionally
// memoizes per candidate: a column is a function of (own series, that
// candidate's posterior) and of nothing else, so while seriesVer stands, a
// candidate — matched by id, wherever the pruning order now puts it — whose
// posterior still carries the stamped version keeps its column verbatim,
// and only the candidates whose posterior moved are scored again.
type objEvidence struct {
	cands  []model.TagID // owned copy (memo compares it against rec.cands)
	epochs []model.Epoch
	evid   []float64 // len(cands) rows of len(epochs), row k at k*len(epochs)
	totals []float64
	// uniTotal is the score a hypothetical container with no co-location
	// history would have. It becomes the default prior of the collapsed
	// state. totals and uniTotal are comparable only against each other:
	// the full matrix path includes the object's uniform evidence sum in
	// both, the fast path includes it in neither (a common shift that every
	// consumer — best-candidate selection, CR margins, normalized migration
	// exports — is invariant to).
	uniTotal float64
	// scorable records whether the evidence union was non-empty: an object
	// with no epochs anywhere has nothing to score and keeps its current
	// assignment (the fast path has no epochs slice to test).
	scorable bool

	// Fast-mode correction table (see above): (len(series)+1)·len(cands)
	// entries, sized by keepGrow's rule.
	corr []float64

	// Memo stamps, taken at build time: the object's series version, each
	// candidate posterior's content version (aligned with cands), and the
	// prior weights. Within one Run's EM loop only posterior versions can
	// move, so later iterations rebuild evidence only for objects whose
	// candidates' groups actually changed — and, in fast mode, only those
	// candidates' columns.
	valid     bool
	seriesVer uint32
	postVers  []uint32
	priorSnap []float64
	priorDef  float64
}

// row returns candidate k's point-evidence row.
func (ev *objEvidence) row(k int) []float64 {
	ne := len(ev.epochs)
	return ev.evid[k*ne : (k+1)*ne : (k+1)*ne]
}

// computeEvidence rebuilds rec.ev, the evidence matrix for one object
// against its candidate containers, using the containers' current
// posteriors. At epochs where a candidate has no posterior (neither it nor
// its group was read) the posterior is uniform, so the evidence reduces to
// precomputed means.
//
// The build is column-precompute-then-row-fill: one epoch pass derives the
// per-epoch uniform evidence and the object's own-observation delta rows,
// then each candidate row starts as a copy of the uniform vector and only
// the candidate's active epochs (its posterior epochs, a subset of the
// union by construction) are overwritten. Inactive cells — the bulk of the
// matrix — cost a copy instead of a cursor chase, and each row total folds
// only the active cells over the shared uniform sum.
func (e *Engine) computeEvidence(rec *tagRec, s *scratch) *objEvidence {
	if rec.ev == nil {
		rec.ev = &objEvidence{}
	}
	e.computeEvidenceInto(rec.ev, rec, s)
	return rec.ev
}

// computeEvidenceInto is computeEvidence targeting an arbitrary matrix
// (diagnostics compute into a throwaway so rec.ev stays M-step-owned).
func (e *Engine) computeEvidenceInto(ev *objEvidence, rec *tagRec, s *scratch) {
	ev.valid = false
	cands := rec.cands
	ev.cands = append(ev.cands[:0], cands...)
	ev.epochs = ev.epochs[:0]
	ev.totals = ev.totals[:0]
	ev.postVers = ev.postVers[:0]
	ev.uniTotal = 0
	ev.scorable = false
	if len(cands) == 0 {
		ev.priorSnap = ev.priorSnap[:0]
		ev.priorDef = rec.priorDefault
		ev.seriesVer = rec.seriesVer
		ev.valid = true
		return
	}

	// Hoist the candidate records out of the per-epoch loop: one map lookup
	// per candidate instead of one per (epoch, candidate) pair.
	posts := s.postRefs(len(cands))
	for k, cid := range cands {
		posts[k] = &e.tag(cid).post
	}

	epochs := e.evidenceEpochs(&ev.epochs, rec, cands, posts, s)
	ev.epochs = epochs
	ne := len(ev.epochs)
	ev.scorable = ne > 0

	ev.evid = keepGrow(ev.evid, 0, len(cands)*ne)[:len(cands)*ne]
	if cap(ev.totals) < len(cands) {
		ev.totals = make([]float64, len(cands))
	} else {
		ev.totals = ev.totals[:len(cands)]
	}

	// Pass 1: per-epoch uniform evidence and the object's own delta rows
	// (MaskDelta rows are cache-owned and stable, so holding them is safe),
	// plus the reader behind each single-reader row.
	uni := s.floats(&s.uni, ne)
	rows := s.maskRowRefs(ne)
	readers := s.intBuf(ne)
	uniSum := 0.0
	objIdx := 0 // pointer into rec.series
	for i, t := range ev.epochs {
		var omask model.Mask
		for objIdx < len(rec.series) && rec.series[objIdx].T < t {
			objIdx++
		}
		if objIdx < len(rec.series) && rec.series[objIdx].T == t {
			omask = rec.series[objIdx].Mask
		}
		maskRow, maskMean := e.lik.MaskDelta(omask)
		rows[i], readers[i] = maskRow, singleReader(omask)
		u := e.lik.UniformBase(t) + maskMean
		uni[i] = u
		uniSum += u
	}

	// Pass 2: per-candidate rows. Every posterior epoch is in the union, so
	// the walk advances one cursor over ev.epochs and always lands on a
	// match. The object's own observation adds q·δ: one load from the
	// posterior's cells for a single-reader mask, the direct dot for a
	// multi-reader mask or a posterior restored without cells.
	for k := range cands {
		post := posts[k]
		row := ev.evid[k*ne : (k+1)*ne]
		copy(row, uni)
		// Hoist the posterior's slice headers out of the cell loop: post is
		// a pointer, so without this every cell reloads them from memory.
		pEpochs, pQ, pQBase, pn := post.epochs, post.q, post.qBase, post.n
		pCells := post.cellsOrNil()
		active := 0.0 // active-cell evidence in excess of the uniform vector
		i := 0
		for j, t := range pEpochs {
			for epochs[i] < t {
				i++
			}
			v := pQBase[j]
			if maskRow := rows[i]; maskRow != nil {
				if r := readers[i]; r >= 0 && pCells != nil {
					v += pCells[j*pn+r]
				} else {
					v += dot(pQ[j*pn:(j+1)*pn], maskRow)
				}
			}
			row[i] = v
			active += v - uni[i]
		}
		ev.totals[k] = uniSum + active + rec.priorW[k]
	}
	ev.uniTotal = uniSum + rec.priorDefault

	// Stamp the memo.
	ev.seriesVer = rec.seriesVer
	for k := range cands {
		ev.postVers = append(ev.postVers, posts[k].ver)
	}
	ev.priorSnap = append(ev.priorSnap[:0], rec.priorW...)
	ev.priorDef = rec.priorDefault
	ev.valid = true
}

// evidenceEpochs builds the union of the object's read epochs and its
// candidates' active epochs into *dst — the columns of the matrix-mode
// evidence (the fast mode never forms the union: its totals need none and
// its critical-region search merges the epochs it visits as it goes). Every
// input list is already sorted, so the union is a chain of linear merges.
// Objects of one group share their candidate set (in varying per-object
// score order), so the candidates' combined epoch list is cached in the
// worker's scratch under an order-insensitive key and reused until the
// engine, the set or any posterior version changes; the object's own epochs
// (usually already contained) then merge in one walk.
func (e *Engine) evidenceEpochs(dst *[]model.Epoch, rec *tagRec, cands []model.TagID, posts []*posterior, s *scratch) []model.Epoch {
	key := append(s.candUScr[:0], cands...)
	slices.Sort(key)
	s.candUScr = key
	hit := s.candUEng == e && slices.Equal(s.candUKey, key)
	if hit {
		for k, cid := range key {
			if s.candUVers[k] != e.tag(cid).post.ver {
				hit = false
				break
			}
		}
	}
	if !hit {
		u := s.epochs[:0]
		for _, p := range posts {
			u = mergeEpochs(u, p.epochs, &s.epochsBuf)
		}
		s.epochs = u
		s.candU = append(s.candU[:0], u...)
		s.candUEng = e
		s.candUKey = append(s.candUKey[:0], key...)
		s.candUVers = s.candUVers[:0]
		for _, cid := range key {
			s.candUVers = append(s.candUVers, e.tag(cid).post.ver)
		}
	}
	epochs := append((*dst)[:0], s.candU...)
	epochs = mergeSeriesEpochs(epochs, rec.series, &s.epochsBuf)
	*dst = epochs
	return epochs
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

// computeEvidenceFastInto rescores an object's candidates without
// materializing the evidence matrix, and reports how many candidates kept
// their correction column from the previous build. Each total decomposes as
//
//	w_o(c_k) = U_o + advSum_k + Σ_{t ∈ own ∩ active_k} (q_k(t)·δ(mask_t) − maskMean_t) + priorW_k
//
// where U_o (the object's uniform evidence summed over the whole epoch
// union) is common to every candidate and to uniTotal, advSum_k is the
// candidate posterior's cached object-independent advantage, and the sum —
// candidate k's corrections — runs over the object's own read epochs only.
// All consumers of totals are invariant to the common shift U_o
// (best-candidate selection and CR margins compare candidates; migration
// exports normalize by the max), so the fast path drops it and the union —
// the expensive merge — is never formed.
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
func (e *Engine) computeEvidenceFastInto(ev *objEvidence, rec *tagRec, s *scratch) (reused int) {
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
	ev.epochs = ev.epochs[:0]
	ev.evid = ev.evid[:0]
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

	// Stamp the memo (same stamps as the matrix path).
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

// computeEvidenceFast is computeEvidenceFastInto targeting rec.ev.
func (e *Engine) computeEvidenceFast(rec *tagRec, s *scratch) (reused int) {
	if rec.ev == nil {
		rec.ev = &objEvidence{}
	}
	return e.computeEvidenceFastInto(rec.ev, rec, s)
}

// fullEvidence reports whether the M-step must materialize full evidence
// matrices: change-point detection and Δ collection consume per-epoch
// rows. The serving default (Delta 0, no collection) needs only the totals
// and CR margins, which the fast path and the on-the-fly critical-region
// search derive without ever building a matrix.
func (e *Engine) fullEvidence() bool { return e.cfg.Delta > 0 || e.cfg.CollectDeltas }

// evidenceCurrent reports whether rec.ev is still exact: every input the
// matrix was computed from (series, candidates, priors, candidate
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
	full := e.fullEvidence()
	noCarry := e.noCarry
	e.parallelFor(len(e.objects), objectChunk, func(s *scratch, i int) {
		rec := e.tag(e.objects[i])
		if noCarry && rec.ev != nil {
			rec.ev.valid = false // reference mode: every pass scores from nothing
		}
		if e.evidenceCurrent(rec) {
			e.nEvSkipped.Add(1)
		} else {
			reused := 0
			if full {
				e.computeEvidence(rec, s)
			} else {
				reused = e.computeEvidenceFast(rec, s)
			}
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
// each candidate container (Eq 7), recomputed from the current posteriors.
// It is the diagnostic behind Figure 4: cumulative evidence is the running
// sum of each row. The slices are freshly allocated.
func (e *Engine) EvidenceSeries(oid model.TagID) (cands []model.TagID, epochs []model.Epoch, point [][]float64) {
	rec := e.tag(oid)
	if rec == nil || rec.isContainer {
		return nil, nil, nil
	}
	// Compute into a throwaway matrix: rec.ev is M-step-owned, and in fast
	// mode it deliberately holds no rows — a diagnostic query must not swap
	// a full matrix (with differently associated totals) into its place.
	var tmp objEvidence
	s := e.getScratch()
	e.computeEvidenceInto(&tmp, rec, s)
	scratches.Put(s)
	ev := &tmp
	point = make([][]float64, len(ev.cands))
	for k := range point {
		point[k] = append([]float64(nil), ev.row(k)...)
	}
	return append([]model.TagID(nil), ev.cands...),
		append([]model.Epoch(nil), ev.epochs...),
		point
}
