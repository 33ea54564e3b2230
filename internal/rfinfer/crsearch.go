package rfinfer

import (
	"math"
	"slices"

	"rfidtrack/internal/model"
)

// crExhausted is the head epoch of a merge stream with nothing left and the
// epoch of the table's closing row. Epochs are 32 bits wide, so it sorts
// below every real epoch and every window edge.
const crExhausted = math.MinInt64

// crRow is the epoch column of the critical-region search's window table.
type crRow struct {
	t   int64 // the row's evidence epoch T[g]
	own int32 // how many of the object's own readings lie at or before t
}

// crTable is the window table of one critical-region search or change-point
// test: one row per evidence epoch of the searched object, newest first,
// built on demand by a backward merge over the candidates' posterior epochs
// and the object's own readings. Row g holds, per candidate j, the
// posterior's advantage prefix through T[g] — adv[g*k+j] =
// prefAdv_j[#{pe_j ≤ T[g]}] — and the count of own readings through T[g],
// which is the row of the object's correction table (objEvidence.corr) that
// holds every candidate's corrections through T[g]: the search reads that
// table where the M-step wrote it. The closing row, appended once every
// stream is exhausted, stands for "before all history": epoch crExhausted,
// count 0, prefixes at their origin.
//
// It lives in the worker's scratch and grows with the rows one search
// actually builds, so it is bounded by the longest searched history.
type crTable struct {
	rows []crRow
	// adv runs one row ahead of rows: the merge writes the row after the one
	// it appends, whose prefixes it has just stepped to.
	adv []float64

	// Merge state: per candidate what is left of its posterior; the count and
	// epoch of the own readings not yet merged; and the next row's epoch, the
	// newest head.
	cands   []crCand
	oc      int
	ownHead int64
	next    int64
}

// crCand is one candidate's posterior stream in the merge.
type crCand struct {
	post *posterior
	at   int   // index of the newest posterior row not yet merged, -1 when none
	head int64 // its epoch, crExhausted when none
}

// reset empties the table and points it at one object's search inputs: its
// evidence's candidates' posteriors in e and its own readings.
func (tb *crTable) reset(e *Engine, ev *objEvidence, own model.Series) {
	k := len(ev.cands)
	tb.rows = tb.rows[:0]
	if cap(tb.cands) < k {
		tb.cands = make([]crCand, k)
	}
	tb.cands = tb.cands[:k]
	tb.adv = slices.Grow(tb.adv[:0], k)[:k]
	tb.oc = len(own)
	tb.ownHead = crExhausted
	if tb.oc > 0 {
		tb.ownHead = int64(own[tb.oc-1].T)
	}
	tb.next = tb.ownHead
	for j, cid := range ev.cands {
		p := &e.tag(cid).post
		c := crCand{post: p, at: len(p.epochs) - 1, head: crExhausted}
		if c.at >= 0 {
			c.head = int64(p.epochs[c.at])
		}
		tb.cands[j] = c
		tb.adv[j] = p.advThrough(c.at + 1)
		tb.next = max(tb.next, c.head)
	}
}

// extend merges rows into the table, newest first, until it has appended
// one whose epoch lies before tLo (the closing row always does).
func (tb *crTable) extend(tLo int64, own model.Series) {
	cands := tb.cands
	k := len(cands)
	for {
		t := tb.next
		tb.rows = append(tb.rows, crRow{t: t, own: int32(tb.oc)})
		if t == crExhausted {
			return
		}
		// Every stream whose head is t steps back; the newest head left is
		// the next row, and the prefixes stepped to are its advantages.
		// Which candidates are active at an epoch follows the readers' duty
		// cycles, not a pattern a branch predictor learns, so the step is
		// arithmetic and the loads are unconditional.
		n := len(tb.adv)
		tb.adv = slices.Grow(tb.adv, k)[:n+k]
		row := tb.adv[n : n+k]
		next := int64(crExhausted)
		for j := range row {
			c := &cands[j]
			step := 0
			if c.head == t {
				step = 1
			}
			a := c.at - step
			h := int64(crExhausted)
			if a >= 0 {
				h = int64(c.post.epochs[a])
			}
			c.at, c.head = a, h
			row[j] = c.post.advThrough(a + 1)
			next = max(next, h)
		}
		if tb.ownHead == t {
			tb.oc--
			tb.ownHead = crExhausted
			if tb.oc > 0 {
				tb.ownHead = int64(own[tb.oc-1].T)
			}
		}
		tb.next = max(next, tb.ownHead)
		if t < tLo {
			return
		}
	}
}

// updateCriticalRegions runs the history-truncation search of Section 4.1:
// slide a window of width CRWindow over each object's evidence; whenever
// the best candidate's windowed evidence exceeds the second best by
// CRThreshold, the window becomes the object's (most recent) critical
// region. Only the most recent qualifying window survives, so the search
// walks the windows newest-first and stops at the first hit — in the stable
// steady state that touches one window instead of the whole retained
// history. Objects are independent, so the search fans out over the worker
// pool.
//
// A window's per-candidate evidence comes from two prefix-sum families: the
// posterior's object-independent advantage (prefAdv, shared by every
// object) and the object's own corrections summed by the last M-step
// (objEvidence.corr). The margin between the best and second-best
// candidate is invariant to the uniform evidence common to all candidates,
// so the windowed advantage + correction excess compares exactly like
// windowed sums of the point evidence of Eq 7.
//
// The windows are read off a crTable. With g the window's newest row and le
// the first row left of it (T[le] < T[g] − w; one cursor, shared by all
// candidates, that only moves toward older rows), candidate j's window sum
// is
//
//	((adv[g][j] − adv[le][j]) + corr[own(g)][j]) − corr[own(le)][j]
//
// — four loads and three flops, the corr rows read in place in the
// M-step's table. That is the four-cursor search's value bit for bit: the
// same four operands in the same order, where a term that search left out
// (no posterior epoch, or no correction, on that side of the edge) is a
// prefix at its origin, +0.0, and where it wrote the literal 0.0 for a
// window without posterior epochs this takes x − x. A correction-table row
// at a reading where the candidate is inactive holds the newest running sum
// at or before it, which is the prefix that search's cursor found there. No
// prefix entry is −0.0 (a running sum that starts at +0.0 never becomes
// −0.0), so adding or subtracting the absent terms changes nothing. Best
// and second best do not depend on candidate order, the rows are the same
// epoch set (∪ pe_j) ∪ own in the same order, and From/To come from the
// same left edge and t. The table is merged only as far as the window at
// hand reaches, so a search that hits in the newest windows never merges
// the older history — nothing forms the epoch union up front.
// TestCRSearchMatchesReference holds the four-cursor search against this
// one.
func (e *Engine) updateCriticalRegions() {
	w, thr := int64(e.cfg.CRWindow), e.cfg.CRThreshold
	noCarry := e.noCarry
	e.parallelFor(len(e.objects), objectChunk, func(s *scratch, oi int) {
		rec := e.tag(e.objects[oi])
		if !noCarry && rec.evSeq != e.runSeq {
			// Unrecomputed evidence means the object's series, candidates,
			// priors and every candidate posterior (hence prefAdv and the
			// correction prefixes) match the previous Run's search inputs
			// exactly; the carried rec.cr is that search's verdict.
			return
		}
		ev := rec.ev
		if ev == nil || len(ev.cands) < 2 {
			return
		}
		k := len(ev.cands)
		own := rec.series
		if len(ev.corr) != (len(own)+1)*k {
			// No table for this series: a change-point detection just
			// dropped readings the table still sums. The object keeps the
			// region detectChanges left it, and the next Run scores and
			// searches what it still has.
			return
		}
		tb := &s.cr
		tb.reset(e, ev, own)
		if tb.next == crExhausted {
			return // no evidence epoch anywhere: nothing to search
		}

		windows, hit := 0, false
		for g, le := 0, 0; !hit; g++ {
			if g == len(tb.rows) {
				tb.extend(math.MaxInt64, own) // one row
			}
			t := tb.rows[g].t
			if t == crExhausted {
				break
			}
			tLo := t - w
			if le < g {
				le = g
			}
			for tb.rows[le].t >= tLo {
				le++
				if le == len(tb.rows) {
					tb.extend(tLo, own)
				}
			}
			advG, advL := tb.adv[g*k:g*k+k], tb.adv[le*k:le*k+k]
			corrG := ev.corr[int(tb.rows[g].own)*k:][:k]
			corrL := ev.corr[int(tb.rows[le].own)*k:][:k]
			windows++
			best, second := -1e308, -1e308
			for j, a := range advG {
				v := ((a - advL[j]) + corrG[j]) - corrL[j]
				if v > best {
					second = best
					best = v
				} else if v > second {
					second = v
				}
			}
			if best-second >= thr {
				from := max(le-1, g) // le-1 >= g unless the window width is negative
				rec.cr = window{From: model.Epoch(tb.rows[from].t), To: model.Epoch(t) + 1}
				hit = true
			}
		}
		e.nCRSearches.Add(1)
		e.nCRWindows.Add(int64(windows))
		rows := len(tb.rows)
		if tb.rows[rows-1].t == crExhausted {
			rows-- // the closing row is not a merged epoch
		}
		e.nCRRows.Add(int64(rows))
		if !hit {
			e.nCRNoHit.Add(1)
		}
	})
}
