package rfinfer

import (
	"slices"
	"sort"

	"rfidtrack/internal/model"
)

// contRead is one container reading in the flattened co-occurrence index.
type contRead struct {
	t    model.Epoch
	ci   int32 // index into e.containers
	mask model.Mask
}

// contIndex is the flattened co-occurrence index candidate pruning reads:
// every container's readings in one slice sorted by (t, ci), and the epoch →
// offset table the counting sort leaves behind, so a reader goes straight to
// the readings of the epoch it asks for. Every Run rebuilds it; all backing
// is reused across Runs.
type contIndex struct {
	reads []contRead
	spare []contRead // the sort's double buffer (swaps with reads)
	// Bucket b holds the epochs [lo + b<<shift, lo + (b+1)<<shift) and
	// occupies reads[off[b]:off[b+1]]. shift is 0 — one epoch per bucket —
	// unless the epochs are spread too thin for a dense table.
	off   []int32
	lo    model.Epoch
	shift uint
}

// at returns the container readings at epoch t, in ci order.
func (ix *contIndex) at(t model.Epoch) []contRead {
	d := int64(t) - int64(ix.lo)
	if d < 0 {
		return nil
	}
	b := d >> ix.shift
	if b >= int64(len(ix.off))-1 {
		return nil
	}
	seg := ix.reads[ix.off[b]:ix.off[b+1]]
	if n := len(seg); n > 0 && (seg[0].t != t || seg[n-1].t != t) {
		// A coarse bucket spans several epochs, sorted: bisect to t's run.
		i := sort.Search(n, func(i int) bool { return seg[i].t >= t })
		j := sort.Search(n, func(i int) bool { return seg[i].t > t })
		seg = seg[i:j]
	}
	return seg
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
	// Flatten container readings into the epoch-indexed co-occurrence index,
	// numbering each container on its record as the flatten numbers it.
	flat := e.cont.reads[:0]
	for ci, cid := range e.containers {
		rec := e.tag(cid)
		rec.ci = int32(ci)
		for _, rd := range rec.series {
			flat = append(flat, contRead{t: rd.T, ci: int32(ci), mask: rd.Mask})
		}
	}
	e.cont.build(flat)
	e.parallelFor(len(e.objects), objectChunk, func(s *scratch, oi int) {
		e.pruneCandidates(s, e.tag(e.objects[oi]), &e.cont)
	})
}

// pruneCandidates rebuilds one object's candidate list against the
// flattened container index: for each of the object's own readings it looks
// up that epoch's container readings and counts the ones that share a
// reader — it never visits an epoch the object was not read at. It reads
// only state that is fixed for the whole build and writes only rec, so
// objects prune concurrently.
func (e *Engine) pruneCandidates(s *scratch, rec *tagRec, ix *contIndex) {
	// An object with no reading, no candidate and no assignment has nothing
	// to count or keep: its list is empty and stays so. Every site holds a
	// record for every tag of the world, most of them never read there.
	if len(rec.series) == 0 && len(rec.cands) == 0 && rec.container < 0 {
		return
	}
	if cap(s.counts) < len(e.containers) {
		s.counts = make([]int32, len(e.containers))
	}
	counts := s.counts[:len(e.containers)]
	for i := range counts {
		counts[i] = 0
	}
	for _, rd := range rec.series {
		for _, cr := range ix.at(rd.T) {
			if cr.mask&rd.Mask != 0 {
				counts[cr.ci]++
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
		if c := e.tag(id); c != nil && c.isContainer && counts[c.ci] > 0 {
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
}

// build turns flat — the container readings in flatten order, ci ascending
// and epochs ascending inside each container, held in ix.reads' backing —
// into the index: a stable counting sort on the epoch yields exactly the
// (t, ci) order a comparison sort would, in two linear passes over the
// bounded epoch range of the retained history, and the histogram it scatters
// by ends up as the offset table (each bucket's cursor stops where the next
// bucket starts). Epochs spread too thin for one bucket each (a few old
// critical regions far behind the recent history) share buckets of 1<<shift
// epochs, which a comparison sort then orders inside; lookups bisect those.
func (ix *contIndex) build(flat []contRead) {
	if len(flat) == 0 {
		ix.reads, ix.off = flat, ix.off[:0]
		return
	}
	lo, hi := flat[0].t, flat[0].t
	for _, rd := range flat[1:] {
		if rd.t < lo {
			lo = rd.t
		}
		if rd.t > hi {
			hi = rd.t
		}
	}
	span := int64(hi) - int64(lo) + 1
	shift := uint(0)
	for span>>shift > 4*int64(len(flat))+1024 {
		shift++
	}
	nb := int((span-1)>>shift) + 1

	// off[b+1] is bucket b's write cursor during the scatter: it starts at
	// the bucket's first slot (counts go two slots up, the prefix sum brings
	// them one down) and ends at the next bucket's, which is what off[b+1]
	// has to hold afterwards. off[0] stays 0.
	if cap(ix.off) < nb+2 {
		ix.off = make([]int32, nb+2)
	}
	off := ix.off[:nb+2]
	clear(off)
	for _, rd := range flat {
		off[(int64(rd.t)-int64(lo))>>shift+2]++
	}
	for b := 1; b < len(off); b++ {
		off[b] += off[b-1]
	}
	if cap(ix.spare) < len(flat) {
		ix.spare = make([]contRead, 0, cap(flat))
	}
	out := ix.spare[:len(flat)]
	for _, rd := range flat {
		c := &off[(int64(rd.t)-int64(lo))>>shift+1]
		out[*c] = rd
		*c++
	}
	off = off[:nb+1]
	if shift > 0 {
		for b := 0; b < nb; b++ {
			slices.SortFunc(out[off[b]:off[b+1]], func(x, y contRead) int {
				if x.t != y.t {
					return int(x.t) - int(y.t)
				}
				return int(x.ci) - int(y.ci)
			})
		}
	}
	ix.reads, ix.spare = out, flat[:0]
	ix.off, ix.lo, ix.shift = off, lo, shift
}
