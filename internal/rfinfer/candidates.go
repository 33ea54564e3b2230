package rfinfer

import (
	"slices"

	"rfidtrack/internal/model"
)

// contRead is one container reading in the flattened co-occurrence index:
// every container's readings merged into a single epoch-sorted slice that
// is rebuilt (into reused backing) each Run.
type contRead struct {
	t    model.Epoch
	ci   int32 // index into e.containers
	mask model.Mask
}

// scoredCand is one candidate container with its co-occurrence count.
type scoredCand struct {
	id model.TagID
	n  int32
}

// buildCandidates performs candidate pruning (Appendix A.3): each object's
// candidate containers are the ones most frequently co-located with it
// (read by a common reader in a common epoch) over the retained history,
// merged with any candidates carried over from migration and the current
// assignment. All working storage is reused across Runs.
func (e *Engine) buildCandidates() {
	// Flatten container readings into one epoch-sorted index. The flatten
	// order is ci-ascending with epochs ascending inside each container, so
	// a stable counting sort on the epoch alone yields exactly the (t, ci)
	// order a comparison sort would — in one histogram pass over the dense
	// retained-window epoch range instead of O(n log n) compares. When no
	// container series (or registration) changed since the last build, the
	// previous flatten is byte-identical and is reused as-is.
	carry := !e.noCarry
	reads := e.contReads
	if !carry || !e.contFlatClean {
		reads = e.contReads[:0]
		for ci, cid := range e.containers {
			for _, rd := range e.tags[cid].series {
				reads = append(reads, contRead{t: rd.T, ci: int32(ci), mask: rd.Mask})
			}
		}
		e.contReads = e.sortContReads(reads)
		reads = e.contReads
	}

	// Dense container index for forced-candidate count lookups, rebuilt
	// only when registrations changed the container set.
	if len(e.contIndex) != len(e.containers) {
		e.contIndex = make(map[model.TagID]int, len(e.containers))
		for ci, cid := range e.containers {
			e.contIndex[cid] = ci
		}
	}
	e.parallelFor(len(e.objects), objectChunk, func(s *scratch, oi int) {
		e.pruneCandidates(s, e.tags[e.objects[oi]], reads)
	})

	// Every object is now consistent with the current container state: the
	// rebuilt ones saw it, the skipped ones were proven untouched by it.
	e.contChangedFloor = epochMax
	e.contFlatClean = true
}

// pruneCandidates rebuilds one object's candidate list against the
// flattened container index. It reads only state that is fixed for the
// whole build and writes only rec, so objects prune concurrently.
func (e *Engine) pruneCandidates(s *scratch, rec *tagRec, reads []contRead) {
	// Skip objects whose rebuild inputs are provably unchanged since the
	// list was last built: same series (candVer), same assignment
	// (candCont — pruning protects the current container, so a changed
	// assignment can change the outcome), and no container mutation at
	// any epoch the object was read at (co-occurrence requires a shared
	// epoch, so container changes strictly above the object's newest
	// reading cannot move any count). Rebuilding from identical counts,
	// candidates and priors is idempotent, so keeping the list is
	// bit-identical to rebuilding it.
	if !e.noCarry && rec.candValid && rec.seriesVer == rec.candVer &&
		rec.container == rec.candCont &&
		e.contChangedFloor > rec.series.Last() {
		return
	}
	if cap(s.counts) < len(e.containers) {
		s.counts = make([]int32, len(e.containers))
	}
	counts := s.counts[:len(e.containers)]
	for i := range counts {
		counts[i] = 0
	}
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

	// Snapshot the previous candidate list (and its migrated weights)
	// before rebuilding rec.cands in place.
	s.oldCands = append(s.oldCands[:0], rec.cands...)
	s.oldPrior = append(s.oldPrior[:0], rec.priorW...)
	// priorOf looks up a candidate's carried-over weight in that snapshot.
	// Candidate lists are bounded by MaxCandidates, so a linear scan beats
	// a map.
	priorOf := func(id model.TagID) (float64, bool) {
		for i, c := range s.oldCands {
			if c == id {
				return s.oldPrior[i], true
			}
		}
		return 0, false
	}

	scored := s.scored[:0]
	for ci, n := range counts {
		if n > 0 {
			scored = append(scored, scoredCand{id: e.containers[ci], n: n})
		}
	}
	// Previous candidates (including migrated ones) and the current
	// assignment stay eligible even with no co-location this window, so
	// their prior weights are not lost.
	forcedFrom := len(scored)
	force := func(id model.TagID) {
		if id < 0 {
			return
		}
		if ci, ok := e.contIndex[id]; ok && counts[ci] > 0 {
			return // already scored
		}
		for _, sc := range scored[forcedFrom:] {
			if sc.id == id {
				return
			}
		}
		scored = append(scored, scoredCand{id: id})
	}
	for _, c := range s.oldCands {
		force(c)
	}
	force(rec.container)
	s.scored = scored

	slices.SortFunc(scored, func(a, b scoredCand) int {
		if a.n != b.n {
			return int(b.n) - int(a.n)
		}
		return int(a.id) - int(b.id)
	})

	max := e.cfg.MaxCandidates
	if max <= 0 {
		max = len(scored)
	}
	keep := len(scored)
	if len(scored) > max {
		// Never prune the current assignment or a migrated candidate
		// whose weight beats the default (it carries real co-location
		// evidence from a previous site). Survivors compact forward.
		keep = max
		for _, sc := range scored[max:] {
			w, ok := priorOf(sc.id)
			if sc.id == rec.container || (ok && w > rec.priorDefault) {
				scored[keep] = sc
				keep++
			}
		}
	}

	rec.cands = rec.cands[:0]
	rec.priorW = rec.priorW[:0]
	for _, sc := range scored[:keep] {
		rec.cands = append(rec.cands, sc.id)
		if w, ok := priorOf(sc.id); ok {
			rec.priorW = append(rec.priorW, w)
		} else {
			rec.priorW = append(rec.priorW, rec.priorDefault)
		}
	}
	rec.candValid = true
	rec.candVer = rec.seriesVer
	rec.candCont = rec.container
}

// sortContReads sorts the flattened container-reading index by (t, ci),
// returning the sorted slice (which may use e.contReads2's backing; the two
// backings swap roles across Runs). Epochs in the retained history span a
// bounded window, so a stable counting sort on t does the job in two linear
// passes; a degenerate span (sparse epochs spread over a huge range) falls
// back to the comparison sort.
func (e *Engine) sortContReads(reads []contRead) []contRead {
	if len(reads) < 2 {
		return reads
	}
	lo, hi := reads[0].t, reads[0].t
	for _, rd := range reads[1:] {
		if rd.t < lo {
			lo = rd.t
		}
		if rd.t > hi {
			hi = rd.t
		}
	}
	span := int64(hi) - int64(lo) + 1
	if span > 4*int64(len(reads))+1024 {
		slices.SortFunc(reads, func(a, b contRead) int {
			if a.t != b.t {
				return int(a.t) - int(b.t)
			}
			return int(a.ci) - int(b.ci)
		})
		return reads
	}
	if cap(e.epochHist) < int(span) {
		e.epochHist = make([]int32, span)
	}
	hist := e.epochHist[:span]
	for i := range hist {
		hist[i] = 0
	}
	for _, rd := range reads {
		hist[rd.t-lo]++
	}
	sum := int32(0)
	for i, n := range hist {
		hist[i] = sum
		sum += n
	}
	if cap(e.contReads2) < len(reads) {
		e.contReads2 = make([]contRead, 0, cap(reads))
	}
	out := e.contReads2[:len(reads)]
	for _, rd := range reads {
		out[hist[rd.t-lo]] = rd
		hist[rd.t-lo]++
	}
	e.contReads2 = reads[:0]
	return out
}
