package rfinfer

import (
	"slices"

	"rfidtrack/internal/model"
)

// objEvidence is one object's point-evidence matrix over the union of its
// own read epochs and its candidates' active epochs: row(k)[i] is
// e_{c_k,o}(epochs[i]) of Eq 7. totals[k] is the co-location strength
// w_{c_k,o} of Eq 5 including any migrated prior weight. The matrix lives
// in one contiguous backing array reused across Runs.
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

	// Fast-mode correction prefixes: the object-specific part of each
	// candidate's evidence — dot-product corrections at the object's own
	// read epochs that the candidate is active at — stored as one epoch
	// list plus inclusive prefix sums, candidate k's segment at
	// corrT[corrOff[k]:corrOff[k+1]]. The critical-region search combines
	// them with the posterior's prefAdv to take any window's evidence
	// excess as two subtractions instead of re-deriving cells.
	corrOff []int32
	corrT   []model.Epoch
	corrPre []float64

	// Whole-matrix memo stamps: the matrix is exact while the object's
	// series version, candidate list, prior weights and every candidate
	// posterior's content version still match what they were at compute
	// time. Within one Run's EM loop only posterior versions can move, so
	// later iterations rebuild evidence only for objects whose candidates'
	// groups actually changed.
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
		posts[k] = &e.tags[cid].post
	}

	epochs := e.evidenceEpochs(&ev.epochs, rec, cands, posts, s)
	ev.epochs = epochs
	ne := len(ev.epochs)
	ev.scorable = ne > 0

	if cap(ev.evid) < len(cands)*ne {
		ev.evid = make([]float64, len(cands)*ne)
	} else {
		ev.evid = ev.evid[:len(cands)*ne]
	}
	if cap(ev.totals) < len(cands) {
		ev.totals = make([]float64, len(cands))
	} else {
		ev.totals = ev.totals[:len(cands)]
	}

	// Pass 1: per-epoch uniform evidence and the object's own delta rows
	// (MaskDelta rows are cache-owned and stable, so holding them is safe).
	uni := s.floats(&s.uni, ne)
	rows := s.maskRowRefs(ne)
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
		rows[i] = maskRow
		u := e.lik.UniformBase(t) + maskMean
		uni[i] = u
		uniSum += u
	}

	// Pass 2: per-candidate rows. Every posterior epoch is in the union, so
	// the walk advances one cursor over ev.epochs and always lands on a
	// match.
	n := e.lik.N()
	for k := range cands {
		post := posts[k]
		row := ev.evid[k*ne : (k+1)*ne]
		copy(row, uni)
		// Hoist the posterior's slice headers out of the cell loop: post is
		// a pointer, so without this every cell reloads them from memory.
		pEpochs, pQ, pQBase, pn := post.epochs, post.q, post.qBase, post.n
		active := 0.0 // active-cell evidence in excess of the uniform vector
		i := 0
		for j, t := range pEpochs {
			for epochs[i] < t {
				i++
			}
			v := pQBase[j]
			if maskRow := rows[i]; maskRow != nil {
				q := pQ[j*pn : (j+1)*pn]
				dot := 0.0
				for a := 0; a < n; a++ {
					dot += q[a] * maskRow[a]
				}
				v += dot
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
// candidates' active epochs into *dst. Every input list is already sorted,
// so the union is a chain of linear merges. Objects of one group share
// their candidate set (in varying per-object score order), so the
// candidates' combined epoch list is cached in the worker's scratch under
// an order-insensitive key and reused until the engine, the set or any
// posterior version changes; the object's own epochs (usually already
// contained) then merge in one walk.
func (e *Engine) evidenceEpochs(dst *[]model.Epoch, rec *tagRec, cands []model.TagID, posts []*posterior, s *scratch) []model.Epoch {
	key := append(s.candUScr[:0], cands...)
	slices.Sort(key)
	s.candUScr = key
	hit := s.candUEng == e && slices.Equal(s.candUKey, key)
	if hit {
		for k, cid := range key {
			if s.candUVers[k] != e.tags[cid].post.ver {
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
			s.candUVers = append(s.candUVers, e.tags[cid].post.ver)
		}
	}
	epochs := append((*dst)[:0], s.candU...)
	epochs = mergeSeriesEpochs(epochs, rec.series, &s.epochsBuf)
	*dst = epochs
	return epochs
}

// computeEvidenceFastInto recomputes an object's candidate totals without
// materializing the evidence matrix. Each total decomposes as
//
//	w_o(c_k) = U_o + advSum_k + Σ_{t ∈ own ∩ active_k} (dot − maskMean_t) + priorW_k
//
// where U_o (the object's uniform evidence summed over the whole epoch
// union) is common to every candidate and to uniTotal, advSum_k is the
// candidate posterior's cached object-independent advantage, and only the
// dot products at the object's own read epochs are object-specific. All
// consumers of totals are invariant to the common shift U_o (best-candidate
// selection and CR margins compare candidates; migration exports normalize
// by the max), so the fast path drops it: per object the M-step does
// O(|own| · candidates) work instead of O(union · candidates), and the
// union — the expensive merge — is never formed.
func (e *Engine) computeEvidenceFastInto(ev *objEvidence, rec *tagRec, s *scratch) {
	ev.valid = false
	cands := rec.cands
	ev.cands = append(ev.cands[:0], cands...)
	ev.epochs = ev.epochs[:0]
	ev.evid = ev.evid[:0]
	ev.totals = ev.totals[:0]
	ev.postVers = ev.postVers[:0]
	ev.uniTotal = 0
	ev.scorable = false
	if len(cands) == 0 {
		ev.corrOff = append(ev.corrOff[:0], 0)
		ev.corrT = ev.corrT[:0]
		ev.corrPre = ev.corrPre[:0]
		ev.priorSnap = ev.priorSnap[:0]
		ev.priorDef = rec.priorDefault
		ev.seriesVer = rec.seriesVer
		ev.valid = true
		return
	}
	ev.uniTotal = rec.priorDefault
	if cap(ev.totals) < len(cands) {
		ev.totals = make([]float64, len(cands))
	}
	ev.totals = ev.totals[:len(cands)]

	posts := s.postRefs(len(cands))
	for k, cid := range cands {
		posts[k] = &e.tags[cid].post
	}

	// The object's own delta rows and their means, aligned with rec.series
	// (MaskDelta rows are cache-owned and stable, so holding them is safe).
	own := rec.series
	means := s.floats(&s.uni, len(own))
	rows := s.maskRowRefs(len(own))
	for i, rd := range own {
		rows[i], means[i] = e.lik.MaskDelta(rd.Mask)
	}

	scorable := len(own) > 0
	n := e.lik.N()
	ev.corrOff = ev.corrOff[:0]
	ev.corrT = ev.corrT[:0]
	ev.corrPre = ev.corrPre[:0]
	for k := range cands {
		post := posts[k]
		pEpochs, pQ, pn := post.epochs, post.q, post.n
		if len(pEpochs) > 0 {
			scorable = true
		}
		ev.corrOff = append(ev.corrOff, int32(len(ev.corrT)))
		acc := 0.0
		j := 0
		for oi, rd := range own {
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
			if row := rows[oi]; row != nil {
				q := pQ[j*pn : (j+1)*pn]
				dot := 0.0
				for a := 0; a < n; a++ {
					dot += q[a] * row[a]
				}
				acc += dot - means[oi]
				ev.corrT = append(ev.corrT, t)
				ev.corrPre = append(ev.corrPre, acc)
			}
		}
		ev.totals[k] = post.advSum + acc + rec.priorW[k]
	}
	ev.corrOff = append(ev.corrOff, int32(len(ev.corrT)))
	ev.scorable = scorable

	// Stamp the memo (same stamps as the matrix path).
	ev.seriesVer = rec.seriesVer
	for k := range cands {
		ev.postVers = append(ev.postVers, posts[k].ver)
	}
	ev.priorSnap = append(ev.priorSnap[:0], rec.priorW...)
	ev.priorDef = rec.priorDefault
	ev.valid = true
}

// computeEvidenceFast is computeEvidenceFastInto targeting rec.ev.
func (e *Engine) computeEvidenceFast(rec *tagRec, s *scratch) *objEvidence {
	if rec.ev == nil {
		rec.ev = &objEvidence{}
	}
	e.computeEvidenceFastInto(rec.ev, rec, s)
	return rec.ev
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
		if e.tags[cid].post.ver != ev.postVers[k] {
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
	e.parallelFor(len(e.objects), objectChunk, func(s *scratch, i int) {
		rec := e.tags[e.objects[i]]
		if e.evidenceCurrent(rec) {
			e.nEvSkipped.Add(1)
		} else {
			if full {
				e.computeEvidence(rec, s)
			} else {
				e.computeEvidenceFast(rec, s)
			}
			rec.evSeq = e.runSeq
			e.nEvComputed.Add(1)
		}
		rec.bestK = bestCandidate(rec.ev)
	})
	changed := false
	for _, oid := range e.objects {
		rec := e.tags[oid]
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
		rec := e.tags[cid]
		rec.groupNow = rec.groupNow[:0]
	}
	for _, oid := range e.objects {
		c := e.tags[oid].container
		if c < 0 {
			continue
		}
		if crec, ok := e.tags[c]; ok && crec.isContainer {
			crec.groupNow = append(crec.groupNow, oid)
		}
	}
}

// EvidenceSeries exposes an object's point evidence of co-location against
// each candidate container (Eq 7), recomputed from the current posteriors.
// It is the diagnostic behind Figure 4: cumulative evidence is the running
// sum of each row. The slices are freshly allocated.
func (e *Engine) EvidenceSeries(oid model.TagID) (cands []model.TagID, epochs []model.Epoch, point [][]float64) {
	rec, ok := e.tags[oid]
	if !ok || rec.isContainer {
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
