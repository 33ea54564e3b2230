// Incremental Δ-checkpoints: per-tag dirty tracking that lets Run skip the
// E-step, M-step, critical-region search and memo refresh for everything
// that provably did not change since the previous Run. Every skip below is
// an exactness argument, not a heuristic — the carried-forward state is
// bit-identical to what a full pass would recompute, at any worker count,
// which the incremental-vs-fresh equivalence test enforces (see
// PERFORMANCE.md for the invariants).
package rfinfer

import "rfidtrack/internal/model"

// noteMutation accounts one series mutation at epoch t for the incremental
// bookkeeping: the tag turns dirty until the end of the next Run, and its
// add floor (the bound the E-step memo reads) absorbs t.
func (e *Engine) noteMutation(rec *tagRec, t model.Epoch) {
	e.markDirty(rec)
	if t < rec.addFloor {
		rec.addFloor = t
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

// closeCheckpoint finishes a Run's incremental bookkeeping: the dirty set
// and add floors reset — every mutation so far is folded into the memos (or
// will be rediscovered through the seriesVer stamps). Every tag with a
// lowered add floor is dirty, so the one walk resets both.
func (e *Engine) closeCheckpoint() {
	if e.dirtyTags > 0 {
		for rec := range e.allTags {
			rec.dirty = false
			rec.addFloor = epochMax
		}
		e.dirtyTags = 0
	}
}
