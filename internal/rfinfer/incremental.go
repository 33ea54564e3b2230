// Incremental Δ-checkpoints: per-tag dirty tracking that lets Run skip the
// E-step, M-step, critical-region search, truncation and memo refresh for
// everything that provably did not change since the previous Run. Every
// skip below is an exactness argument, not a heuristic — the carried-forward
// state is bit-identical to what a full pass would recompute, at any worker
// count, which the incremental-vs-fresh equivalence test enforces (see
// PERFORMANCE.md for the invariants).
package rfinfer

import "rfidtrack/internal/model"

// noteMutation accounts one series mutation at epoch t for the incremental
// bookkeeping: the tag turns dirty until the end of the next Run, its add
// floor (the bound the E-step memo and the truncation proof read) absorbs
// t, and container mutations additionally invalidate the flattened
// co-occurrence index for every object that could have co-occurred at t.
func (e *Engine) noteMutation(rec *tagRec, t model.Epoch) {
	e.markDirty(rec)
	if t < rec.addFloor {
		rec.addFloor = t
	}
	if rec.isContainer {
		e.noteContainerChange(t)
	}
}

// markDirty flags a tag whose series or migrated state changed since the
// end of the previous Run. The engine counter stays equal to the number of
// set flags; both reset together when Run closes the checkpoint.
func (e *Engine) markDirty(rec *tagRec) {
	if !rec.dirty {
		rec.dirty = true
		e.dirtyTags++
	}
}

// noteContainerChange records that some container's series changed at epoch
// t since the last candidate build: co-occurrence counts of objects with
// readings at or after t may shift, and the flattened index is stale.
func (e *Engine) noteContainerChange(t model.Epoch) {
	if t < e.contChangedFloor {
		e.contChangedFloor = t
	}
	e.contFlatClean = false
}

// groupUndropped reports whether no member of group had readings dropped
// during this Run's truncation or change-point resets.
func (e *Engine) groupUndropped(group []model.TagID) bool {
	for _, oid := range group {
		if len(e.tag(oid).dropped) != 0 {
			return false
		}
	}
	return true
}

// seriesAllIn reports that every reading of s already lies inside
// [from, now]: the truncation window keeps all of them, so the filter pass
// is a provable no-op.
func seriesAllIn(s model.Series, from, now model.Epoch) bool {
	return len(s) == 0 || (s[0].T >= from && s[len(s)-1].T <= now)
}

// truncZoneClean reports that filtering rec.series against the new window
// [newFrom, now+1] with unchanged protected windows (cr plus wins, the
// caller's guarantee) provably drops nothing. It relies on the invariant
// the previous truncation pass established: every unprotected reading then
// sat in [e.truncFrom, e.truncNow]. What remains exposed is (a) readings
// added since, bounded below by addFloor — they must not predate the old
// boundary — and above by now, and (b) the zone [truncFrom, newFrom) the
// advancing boundary uncovers, scanned here for unprotected readings. Old
// protected readings below truncFrom stay protected by the same unchanged
// windows. A clean verdict means the filter pass would keep everything, so
// skipping it — no drops recorded, no series version bump — is
// bit-identical.
func (e *Engine) truncZoneClean(rec *tagRec, newFrom, now model.Epoch, cr window, wins []window) bool {
	s := rec.series
	if s[len(s)-1].T > now || rec.addFloor < e.truncFrom {
		return false
	}
	lo := s.Window(e.truncFrom, newFrom)
	for _, rd := range lo {
		if rd.T >= cr.From && rd.T < cr.To {
			continue
		}
		prot := false
		for _, w := range wins {
			if rd.T >= w.From && rd.T < w.To {
				prot = true
				break
			}
		}
		if !prot {
			return false
		}
	}
	return true
}

// closeCheckpoint finishes a Run's incremental bookkeeping: container drops
// from this Run's truncation flow into the candidate-build floor, and the
// dirty set and add floors reset — every mutation so far is folded into the
// memos (or will be rediscovered through the seriesVer stamps). Every tag
// with a lowered add floor is dirty, so the one walk resets both.
func (e *Engine) closeCheckpoint() {
	for _, cid := range e.containers {
		if d := e.tag(cid).dropped; len(d) > 0 {
			e.noteContainerChange(d[0])
		}
	}
	if e.dirtyTags > 0 {
		for rec := range e.allTags {
			rec.dirty = false
			rec.addFloor = epochMax
		}
		e.dirtyTags = 0
	}
}
