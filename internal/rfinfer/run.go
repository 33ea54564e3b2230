package rfinfer

import (
	"slices"
	"sort"

	"rfidtrack/internal/changepoint"
	"rfidtrack/internal/model"
	"rfidtrack/internal/workpool"
)

// RunResult summarizes one inference run.
type RunResult struct {
	// Iterations is the number of EM iterations executed.
	Iterations int
	// Changes lists the change points detected during this run.
	Changes []Detection
}

// Run executes RFINFER over the retained history up to epoch now, then
// change-point detection, critical-region search, and history truncation.
// It is the per-interval inference step of the deployed system (every 300 s
// in the paper's experiments).
//
// The hot path is incremental and parallel: container posteriors unchanged
// since the previous Run are served from the cross-Run memo, posterior rows
// for already-seen epochs are reused rather than recomputed, and every
// per-object and per-container phase fans out over the engine's pool with
// bit-identical results at any worker count (see PERFORMANCE.md).
func (e *Engine) Run(now model.Epoch) RunResult {
	if e.pool == nil {
		// Stand-alone engine: a private pool for the duration of the Run.
		e.pool = workpool.New(e.cfg.Workers)
		defer func() {
			e.pool.Close()
			e.pool = nil
		}()
	}
	res := e.infer(now)
	e.retire(now)
	return res
}

// infer is the first half of Run: candidate pruning, the EM loop,
// change-point detection and the critical-region search, over the history
// as it stands. It leaves every series as it found it (bar change-point
// resets), so what each phase read can still be inspected before retire
// truncates it.
func (e *Engine) infer(now model.Epoch) RunResult {
	iters := e.estimate(now)
	var changes []Detection
	if e.cfg.Delta > 0 || e.cfg.CollectDeltas {
		changes = e.detectChanges(now)
	}
	e.updateCriticalRegions()
	return RunResult{Iterations: iters, Changes: changes}
}

// estimate opens the Run: it resets the Run's counters, prunes candidates
// and runs the EM loop, leaving every object's evidence in rec.ev. It
// returns the number of EM iterations.
func (e *Engine) estimate(now model.Epoch) int {
	if now > e.now {
		e.now = now
	}
	e.runSeq++
	e.nComputed.Store(0)
	e.nSkipped.Store(0)
	e.nRowsReused.Store(0)
	e.nRowsComputed.Store(0)
	e.nEvComputed.Store(0)
	e.nEvSkipped.Store(0)
	e.nSegReused.Store(0)
	e.nSegComputed.Store(0)
	e.nGroupsDirty.Store(0)
	e.nCRSearches.Store(0)
	e.nCRWindows.Store(0)
	e.nCRRows.Store(0)
	e.nCRNoHit.Store(0)
	for rec := range e.allTags {
		rec.dropped = rec.dropped[:0]
	}
	e.buildCandidates()

	// EM loop: E-step computes container posteriors, M-step reassigns
	// objects; stop when the containment relation is stable (Theorem 1
	// guarantees convergence to a local likelihood maximum).
	iters := 0
	for iters < e.cfg.MaxIters {
		iters++
		e.rebuildGroups()
		e.eStep()
		if !e.mStep() {
			break
		}
	}
	e.iters = iters
	return iters
}

// retire is the second half of Run: it truncates the history the critical
// regions no longer need, re-anchors the memos to what is left, and closes
// the checkpoint's counters.
func (e *Engine) retire(now model.Epoch) {
	e.truncate(now)
	e.refreshMemo()
	e.stats = RunStats{
		PosteriorsComputed:       int(e.nComputed.Load()),
		PosteriorsSkipped:        int(e.nSkipped.Load()),
		RowsReused:               int(e.nRowsReused.Load()),
		RowsComputed:             int(e.nRowsComputed.Load()),
		EvidenceComputed:         int(e.nEvComputed.Load()),
		EvidenceSkipped:          int(e.nEvSkipped.Load()),
		EvidenceSegmentsReused:   int(e.nSegReused.Load()),
		EvidenceSegmentsComputed: int(e.nSegComputed.Load()),
		DirtyTags:                e.dirtyTags,
		GroupsDirty:              int(e.nGroupsDirty.Load()),
		CRSearches:               int(e.nCRSearches.Load()),
		CRWindowsScanned:         int(e.nCRWindows.Load()),
		CRRowsBuilt:              int(e.nCRRows.Load()),
		CRSearchesNoHit:          int(e.nCRNoHit.Load()),
		StorageBytes:             e.storage.held,
		StorageUsedBytes:         e.storage.used,
	}
	e.closeCheckpoint()
	e.prevRun = e.lastRun
	e.lastRun = now
}

// cpVerdict is one object's change-point test, computed in detectChanges'
// parallel pass and acted on in its object-order pass. The verdicts live in
// Engine.cps, aligned with e.objects, not on the tag record: they are read
// nowhere else, and every tag of every site pays for what tagRec carries.
type cpVerdict struct {
	tested               bool
	delta                float64
	split, before, after int
	at                   model.Epoch // the tested epoch at split, or the Run's epoch past the last
}

// detectChanges runs change-point detection (Section 3.3 / Appendix A.2)
// for every object over the evidence the last M-step left. On detection the
// object is reassigned to the post-change container, its pre-change history
// is disregarded, and the detection is recorded. The tests are independent
// per object and fan out; their verdicts are applied afterwards in object
// order, which fixes the order of detections and Δ samples.
//
// The test reads the critical-region search's window table (crTable),
// merged back to the last detected change point: its rows at or after
// cpStart are the tested epochs, and the one row before them carries the
// evidence before cpStart, which goes to the first segment along with the
// migrated priors. Each row is every candidate's evidence prefix less the
// uniform evidence the candidates share at each epoch; that term shifts the
// one- and two-segment hypotheses alike and cancels in Δ.
func (e *Engine) detectChanges(now model.Epoch) []Detection {
	e.cps = slices.Grow(e.cps[:0], len(e.objects))[:len(e.objects)]
	e.parallelFor(len(e.objects), objectChunk, func(s *scratch, oi int) {
		rec := e.tag(e.objects[oi])
		e.cps[oi] = cpVerdict{}
		ev := rec.ev
		// Only objects with fresh evidence can yield a new change point;
		// re-testing stale history would re-report old splits (an object
		// that left the site keeps its record until state migration).
		if ev == nil || len(ev.cands) == 0 || rec.series.Last() <= e.lastRun {
			return
		}
		k, own := len(ev.cands), rec.series
		tb := &s.cr
		tb.reset(e, ev, own)
		tb.extend(int64(rec.cpStart), own)
		n := len(tb.rows) - 1 // the last row is the one before cpStart
		if n < 2 {
			return
		}
		// Best's prefix view is oldest first: row i is table row n-i.
		prefix := s.floats(&s.cpPrefix, (n+1)*k)
		for i := 0; i <= n; i++ {
			g := n - i
			adv, corr := tb.adv[g*k:(g+1)*k], ev.corr[int(tb.rows[g].own)*k:][:k]
			row := prefix[i*k : (i+1)*k]
			for j := range row {
				row[j] = adv[j] + corr[j] + rec.priorW[j]
			}
		}
		cp := cpVerdict{tested: true, at: now}
		cp.delta, cp.split, cp.before, cp.after = changepoint.Best(prefix, k)
		if cp.split < n {
			cp.at = model.Epoch(tb.rows[n-1-cp.split].t)
		}
		e.cps[oi] = cp
	})

	var out []Detection
	for oi, oid := range e.objects {
		rec := e.tag(oid)
		cp := e.cps[oi]
		if !cp.tested {
			continue
		}
		if e.cfg.CollectDeltas {
			e.deltaSamples = append(e.deltaSamples, DeltaSample{Object: oid, Delta: cp.delta})
		}
		if e.cfg.Delta <= 0 || cp.delta < e.cfg.Delta || cp.after < 0 {
			continue
		}
		// A split whose two segments pick the same container is not a
		// containment change, however well it scores.
		if cp.before == cp.after {
			continue
		}
		ev := rec.ev
		d := Detection{
			Object:       oid,
			At:           cp.at,
			DetectedAt:   now,
			NewContainer: ev.cands[cp.after],
			Delta:        cp.delta,
		}
		out = append(out, d)
		e.detections = append(e.detections, d)

		// Adopt the post-change container and disregard pre-change history
		// in all subsequent change-point calls.
		rec.container = ev.cands[cp.after]
		rec.cpStart = cp.at
		clear(rec.priorW)
		rec.resetSeriesFrom(cp.at)
		if rec.cr.To <= cp.at {
			rec.cr = window{}
		}
	}
	return out
}

// resetSeriesFrom drops all readings before epoch from, in place, recording
// the dropped epochs for the memo refresh.
func (rec *tagRec) resetSeriesFrom(from model.Epoch) {
	s := rec.series
	lo := sort.Search(len(s), func(i int) bool { return s[i].T >= from })
	if lo == 0 {
		return
	}
	for _, rd := range s[:lo] {
		rec.dropped = append(rec.dropped, rd.T)
	}
	out := append(s[:0], s[lo:]...)
	rec.series = keepGrow(out, len(out), len(out))
	rec.seriesVer++
}

// truncate drops readings that the configured strategy no longer needs,
// filtering every series in place and recording dropped epochs for the
// memo refresh. A tag whose whole series already sits inside the new window
// is not filtered: the pass would drop nothing. A filter that drops nothing
// keeps the series version, so the carried memos above stay anchored. The
// walk also sums every tag's storage, as it leaves it, for RunStats.
func (e *Engine) truncate(now model.Epoch) {
	e.storage = storageSum{}
	if e.cfg.Truncation == TruncateNone {
		for rec := range e.allTags {
			e.storage.addTag(rec)
		}
		return
	}
	carry := !e.noCarry

	if e.cfg.Truncation == TruncateWindow {
		win := window{From: now - e.cfg.FixedWindow, To: now + 1}
		for rec := range e.allTags {
			if !carry || !seriesAllIn(rec.series, win.From, now) {
				filterSeries(rec, win, window{}, nil)
			}
			e.storage.addTag(rec)
		}
		return
	}

	// CR strategy: an object keeps its critical region plus recent history;
	// a container keeps the union of its candidate-objects' critical
	// regions plus recent history.
	recent := window{From: now - e.cfg.RecentHistory, To: now + 1}
	for _, cid := range e.containers {
		rec := e.tag(cid)
		rec.keepWins = rec.keepWins[:0]
	}
	for _, oid := range e.objects {
		rec := e.tag(oid)
		if !rec.cr.empty() {
			for _, cid := range rec.cands {
				if crec := e.tag(cid); crec != nil {
					crec.keepWins = append(crec.keepWins, rec.cr)
				}
			}
		}
		if !carry || !seriesAllIn(rec.series, recent.From, now) {
			filterSeries(rec, recent, rec.cr, nil)
		}
		e.storage.addTag(rec)
	}
	for _, cid := range e.containers {
		rec := e.tag(cid)
		if !carry || !seriesAllIn(rec.series, recent.From, now) {
			filterSeries(rec, recent, window{}, rec.keepWins)
		}
		e.storage.addTag(rec)
	}
}

// filterSeries keeps only readings inside the recent window, the cr window,
// or any of the extra windows, compacting the series in place and recording
// every dropped epoch. Both lists are then sized by keepGrow's rule, so an
// emptied series holds nothing.
func filterSeries(rec *tagRec, recent, cr window, extra []window) {
	s := rec.series
	out := s[:0]
	for _, rd := range s {
		keep := (rd.T >= recent.From && rd.T < recent.To) ||
			(rd.T >= cr.From && rd.T < cr.To)
		if !keep {
			for _, w := range extra {
				if rd.T >= w.From && rd.T < w.To {
					keep = true
					break
				}
			}
		}
		if keep {
			out = append(out, rd)
		} else {
			rec.dropped = append(rec.dropped, rd.T)
		}
	}
	if len(out) != len(s) {
		rec.seriesVer++
	}
	rec.series = keepGrow(out, len(out), len(out))
	rec.dropped = keepGrow(rec.dropped, len(rec.dropped), len(rec.dropped))
}

// refreshMemo re-anchors every container's posterior memo to the history
// the Run leaves — truncated, and cut back at detected change points, under
// every truncation mode — so the next Run can keep reusing it. Rows at
// epochs no longer in the member epoch union are compacted away (the arrays
// then sized by keepGrow's rule); rows at epochs where some member's
// reading was dropped (the epoch itself survives through another member)
// are recomputed from the remaining data; everything else is kept.
// The refreshed posterior is bit-identical to recomputing it from scratch,
// so the memo never changes inference output.
func (e *Engine) refreshMemo() {
	e.parallelFor(len(e.containers), containerChunk, func(s *scratch, i int) {
		rec := e.tag(e.containers[i])
		if !rec.postValid {
			return
		}
		// Nothing dropped from the container or any memo-group member this
		// Run: the union and every row are exactly what the walk below would
		// reproduce, and postThrough keeps its old horizon.
		if !e.noCarry && len(rec.dropped) == 0 && e.groupUndropped(rec.group) {
			return
		}
		members := s.series[:0]
		members = append(members, rec.series)
		for _, oid := range rec.group {
			members = append(members, e.tag(oid).series)
		}
		s.series = members

		union := epochUnionInto(s, members, epochMin)

		// Epochs whose rows went stale: some member dropped a reading there.
		stale := s.epochs2[:0]
		stale = append(stale, rec.dropped...)
		for _, oid := range rec.group {
			stale = append(stale, e.tag(oid).dropped...)
		}
		s.epochs2 = stale
		if len(stale) > 1 {
			slices.Sort(stale)
		}

		p := &rec.post
		gb := rec.groupBias(len(rec.group))
		cur := s.ints(len(members))
		n := p.n
		origLen := len(p.epochs)
		recomputed := false
		wi, ri, si := 0, 0, 0
		ok := true
		for _, t := range union {
			for ri < len(p.epochs) && p.epochs[ri] < t {
				ri++
			}
			if ri >= len(p.epochs) || p.epochs[ri] != t {
				// The union grew an epoch the posterior never covered; the
				// memo is inconsistent (e.g. readings merged mid-run), so
				// fall back to a full recompute next Run.
				ok = false
				break
			}
			for si < len(stale) && stale[si] < t {
				si++
			}
			if si < len(stale) && stale[si] == t {
				p.qBase[wi] = computeRowAt(e.lik, members, gb, t, cur, s.lq, p.q[wi*n:(wi+1)*n])
				p.fillCells(e.lik, wi)
				e.nRowsComputed.Add(1)
				recomputed = true
			} else if wi != ri {
				copy(p.q[wi*n:(wi+1)*n], p.q[ri*n:(ri+1)*n])
				copy(p.cells[wi*n:(wi+1)*n], p.cells[ri*n:(ri+1)*n])
				p.qBase[wi] = p.qBase[ri]
			}
			p.epochs[wi] = t
			wi++
			ri++
		}
		if !ok {
			// The abort may have landed after compaction writes, so the
			// content version must move even though the memo is dropped, and
			// the advantage and rank index must describe the rows as they now
			// stand for anyone reading them before the recompute.
			p.ver++
			p.refreshAdv(e.lik)
			rec.postValid = false
			return
		}
		p.epochs = keepGrow(p.epochs, wi, wi)
		p.q = keepGrow(p.q, wi*n, wi*n)
		p.cells = keepGrow(p.cells, wi*n, wi*n)
		p.qBase = keepGrow(p.qBase, wi, wi)
		if recomputed || wi != origLen {
			p.ver++ // compaction changed content: stale evidence must rebuild
			p.refreshAdv(e.lik)
		}
		rec.postThrough = e.now
	})
}
