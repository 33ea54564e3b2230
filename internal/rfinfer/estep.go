package rfinfer

import (
	"math"
	"slices"
	"sort"

	"rfidtrack/internal/model"
)

// eStep computes (or revalidates) every container's posterior for the
// current containment estimate, fanning out over the worker pool. Each
// container's decision and computation touch only its own record plus
// read-only member series, so the result is independent of worker count.
//
// The memo (Appendix A.3, extended across Runs) is keyed by the group the
// posterior was computed with and by the add floor: the end-of-Run memo
// refresh leaves every valid posterior exact for the data as it then stood,
// and rows below the lowest epoch at which the container or a member has
// taken a reading since are still exact. With no such reading the posterior
// is carried whole; otherwise only the rows from the floor (or from the
// previous horizon, if that is lower) are recomputed.
func (e *Engine) eStep() {
	e.parallelFor(len(e.containers), containerChunk, func(s *scratch, i int) {
		rec := e.tag(e.containers[i])
		group := rec.groupNow
		sameGroup := rec.postValid && slices.Equal(group, rec.group)
		if sameGroup && rec.computedSeq == e.runSeq {
			return // already computed this Run with the same group
		}
		from := epochMin
		if sameGroup && !e.noCarry {
			floor := e.addedFloor(rec, group)
			if floor == epochMax {
				rec.computedSeq = e.runSeq
				e.nSkipped.Add(1)
				return
			}
			from = min(floor, rec.postThrough+1)
		}
		if len(group) == 0 && len(rec.series) == 0 && len(rec.post.epochs) == 0 {
			// Nothing read and nothing held: the posterior is empty, which
			// it already is. It is left as a compute would leave it — the
			// shape, the (empty) prefix, a new version — without one. This
			// is not a carry, so the reference mode takes this way too; a
			// site's never-read containers leave its groups clean.
			p := &rec.post
			p.n = e.lik.N()
			p.ver++
			p.refreshAdv(e.lik)
		} else {
			if rec.computedSeq != e.runSeq {
				e.nGroupsDirty.Add(1)
			}
			e.computePosterior(rec, group, from, s)
			e.nComputed.Add(1)
		}
		rec.group = append(rec.group[:0], group...)
		rec.postThrough = e.now
		rec.postValid = true
		rec.computedSeq = e.runSeq
	})
}

// addedFloor returns the lowest epoch at which the container or any member
// of group took a reading since the end of the previous Run, epochMax if
// none did.
func (e *Engine) addedFloor(rec *tagRec, group []model.TagID) model.Epoch {
	floor := rec.addFloor
	for _, oid := range group {
		floor = min(floor, e.tag(oid).addFloor)
	}
	return floor
}

// computePosterior fills rec.post for the container given its group,
// keeping any rows at epochs < from (the caller guarantees they are still
// valid) and computing the rest.
func (e *Engine) computePosterior(rec *tagRec, group []model.TagID, from model.Epoch, s *scratch) {
	n := e.lik.N()
	p := &rec.post
	p.ver++

	keep := 0
	if from > epochMin {
		keep = sort.Search(len(p.epochs), func(i int) bool { return p.epochs[i] >= from })
	}

	// Member series: the container's own readings first, then the group's.
	members := s.series[:0]
	members = append(members, rec.series)
	for _, oid := range group {
		members = append(members, e.tag(oid).series)
	}
	s.series = members

	// Active epochs to compute: the union of all member read epochs >= from.
	fresh := epochUnionInto(s, members, from)

	p.resize(keep, keep+len(fresh), n)
	e.nRowsReused.Add(int64(keep))
	e.nRowsComputed.Add(int64(len(fresh)))

	gb := rec.groupBias(len(group))
	cur := s.ints(len(members))
	for _, t := range fresh {
		p.epochs = append(p.epochs, t)
		p.q = append(p.q, s.lq...) // extend by one row; overwritten below
		p.cells = append(p.cells, s.lq...)
		p.qBase = append(p.qBase, 0)
		i := len(p.epochs) - 1
		p.qBase[i] = computeRowAt(e.lik, members, gb, t, cur, s.lq, p.row(i))
		p.fillCells(e.lik, i)
	}
	p.refreshAdv(e.lik)
}

// groupBias returns the multiplier of the all-miss base row: one factor per
// group member, plus one for the container's own tag unless it is untagged
// (Appendix A.4: untagged containers contribute no observation of their
// own).
func (rec *tagRec) groupBias(groupLen int) float64 {
	if rec.untagged {
		return float64(groupLen)
	}
	return float64(1 + groupLen)
}

// computeRowAt evaluates one posterior row: the normalized location
// distribution of a container at epoch t given its members' masks there.
// cur holds per-member cursors that advance monotonically as t increases
// across calls; lq is the log-score accumulator.
//
// lq(a) = (1+|group|)·base_t(a) + deltas for every observed read, which is
// log p(x_tc | a) + sum_o log p(y_to | a) up to a constant: every tag of
// the group contributes the all-miss term for the readers scanning at t,
// and each actual read adds its delta. The return value is dot(q, base_t):
// the evidence an unread object collects against this container at t.
func computeRowAt(lik *model.Likelihood, members []model.Series, gb float64,
	t model.Epoch, cur []int, lq, qOut []float64) float64 {
	base := lik.BaseRow(t)
	n := len(qOut)
	for a := 0; a < n; a++ {
		lq[a] = gb * base[a]
	}
	for mi, ser := range members {
		j := cur[mi]
		for j < len(ser) && ser[j].T < t {
			j++
		}
		cur[mi] = j
		if j < len(ser) && ser[j].T == t {
			addMaskDeltas(lik, lq, ser[j].Mask)
		}
	}
	normalizeLog(lq, qOut)
	return dot(qOut, base)
}

// addMaskDeltas adds delta(r, a) to lq[a] for every reader r set in mask,
// as one combined-row slice loop.
func addMaskDeltas(lik *model.Likelihood, lq []float64, m model.Mask) {
	row, _ := lik.MaskDelta(m)
	if row == nil {
		return
	}
	for a := range lq {
		lq[a] += row[a]
	}
}

// normalizeLog converts unnormalized log-scores into a probability vector
// using a numerically stable log-sum-exp.
func normalizeLog(lq []float64, q []float64) {
	maxv := math.Inf(-1)
	for _, v := range lq {
		if v > maxv {
			maxv = v
		}
	}
	sum := 0.0
	for a, v := range lq {
		q[a] = math.Exp(v - maxv)
		sum += q[a]
	}
	inv := 1 / sum
	for a := range q {
		q[a] *= inv
	}
}

// epochUnionInto builds the sorted, deduplicated union of every member
// series' read epochs >= from in s.epochs (swapping backing arrays with
// s.epochsBuf) and returns it. Each series is already epoch-sorted, so the
// union is a chain of linear two-way merges — no O(n log n) sort in the
// hot path.
func epochUnionInto(s *scratch, members []model.Series, from model.Epoch) []model.Epoch {
	dst := s.epochs[:0]
	for _, ser := range members {
		w := ser
		if from > epochMin {
			w = ser.Window(from, epochMax)
		}
		dst = mergeSeriesEpochs(dst, w, &s.epochsBuf)
	}
	s.epochs = dst
	return dst
}

// mergeSeriesEpochs merges the read epochs of one sorted series into the
// sorted, deduplicated epoch list a, writing the union into *buf's backing
// and handing a's old backing to *buf for the next merge. The swap keeps
// the whole chain allocation-free in steady state.
func mergeSeriesEpochs(a []model.Epoch, b model.Series, buf *[]model.Epoch) []model.Epoch {
	if len(b) == 0 {
		return a
	}
	if len(a) == 0 {
		for _, rd := range b {
			a = append(a, rd.T)
		}
		return a
	}
	// Containment fast path: group members share reader schedules, so one
	// member's epochs are often already in the union, which a read-only walk
	// detects without copying anything.
	if len(b) <= len(a) && b[0].T >= a[0] && b[len(b)-1].T <= a[len(a)-1] {
		i := 0
		contained := true
		for _, rd := range b {
			for i < len(a) && a[i] < rd.T {
				i++
			}
			if i >= len(a) || a[i] != rd.T {
				contained = false
				break
			}
		}
		if contained {
			return a
		}
	}
	out := (*buf)[:0]
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j].T:
			out = append(out, a[i])
			i++
		case b[j].T < a[i]:
			out = append(out, b[j].T)
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	for ; j < len(b); j++ {
		out = append(out, b[j].T)
	}
	*buf = a[:0]
	return out
}

// locateAt returns the posterior-argmax location of the container at epoch
// t, aggregating the log-posteriors of the last k active epochs at or
// before t with geometric recency decay (weight 2^-age). Aggregation makes
// the read-off robust to epochs whose only evidence is an overlap read from
// an adjacent shelf reader, while the decay keeps a decisive newest epoch
// dominant so location transitions are picked up immediately. NoLoc is
// returned if no active epoch <= t exists.
func (p *posterior) locateAt(t model.Epoch, k int) model.Loc {
	hi := p.rank(t)
	if hi == 0 {
		return model.NoLoc
	}
	lo := hi - k
	if lo < 0 {
		lo = 0
	}
	best, bestV := model.NoLoc, math.Inf(-1)
	for a := 0; a < p.n; a++ {
		sum, w := 0.0, 1.0
		for i := hi - 1; i >= lo; i-- {
			sum += w * math.Log(p.q[i*p.n+a]+1e-300)
			w *= 0.5
		}
		if sum > bestV {
			best, bestV = model.Loc(a), sum
		}
	}
	return best
}
