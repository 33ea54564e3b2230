package rfinfer

import (
	"encoding/binary"
	"fmt"
	"maps"
	"slices"

	"rfidtrack/internal/model"
)

// CollapsedState is the minimal migrated inference state of Section 4.1:
// one co-location weight per candidate container. Importing it seeds
// inference at the next site without shipping any readings.
type CollapsedState struct {
	Object     model.TagID
	Container  model.TagID // current estimate (-1 if none)
	Candidates []model.TagID
	Weights    []float64
	// DefaultWeight seeds candidates that were unknown at the exporting
	// site: the uniform-posterior evidence total, i.e. how a container
	// with no co-location history would have scored there.
	DefaultWeight float64
}

// CRState is the critical-region migrated state: the object's readings and
// each candidate container's readings inside the critical region and recent
// history, plus the collapsed weights for everything older.
type CRState struct {
	Collapsed  CollapsedState
	CR         struct{ From, To model.Epoch }
	ObjectHist model.Series
	ContHist   map[model.TagID]model.Series
}

// ExportCollapsed extracts the collapsed inference state for one object.
// The weights are the current co-location strengths w_co; the readings they
// summarize can then be dropped at this site.
func (e *Engine) ExportCollapsed(oid model.TagID) (CollapsedState, error) {
	rec := e.tag(oid)
	if rec == nil || rec.isContainer {
		return CollapsedState{}, fmt.Errorf("rfinfer: %d is not a registered object", oid)
	}
	st := CollapsedState{
		Object:     oid,
		Container:  rec.container,
		Candidates: append([]model.TagID(nil), rec.cands...),
		Weights:    make([]float64, len(rec.cands)),
	}
	// Export the totals of the latest run, recomputing them (into the
	// borrowed scratch's evidence, so rec.ev stays M-step-owned) only when
	// readings arrived since. The M-step's own build keeps exported weights
	// bit-identical to what it scored.
	ev := rec.ev
	if !e.evidenceCurrent(rec) {
		s := e.getScratch()
		defer scratches.Put(s)
		ev = &s.export
		// The scratch's last export was another object's (or another
		// engine's): nothing in it may pass for a kept column.
		ev.valid = false
		e.scoreEvidence(ev, rec, s)
	}
	if ev != nil && len(ev.totals) == len(st.Weights) {
		copy(st.Weights, ev.totals)
		st.DefaultWeight = ev.uniTotal
	} else {
		copy(st.Weights, rec.priorW)
		st.DefaultWeight = rec.priorDefault
	}
	// Normalize so the best candidate's weight is 0: co-location strengths
	// are sums of log-likelihoods, and only their differences matter. At
	// the destination a fresh local candidate has weight 0, so without
	// normalization it would dominate every shipped (negative) weight.
	if len(st.Weights) > 0 {
		maxW := st.Weights[0]
		for _, w := range st.Weights[1:] {
			if w > maxW {
				maxW = w
			}
		}
		for i := range st.Weights {
			st.Weights[i] -= maxW
		}
		st.DefaultWeight -= maxW
	}
	return st, nil
}

// ExportCR extracts the critical-region migration state for one object: the
// collapsed weights plus the raw readings inside CR ∪ recent history for
// the object and its candidate containers.
func (e *Engine) ExportCR(oid model.TagID) (CRState, error) {
	col, err := e.ExportCollapsed(oid)
	if err != nil {
		return CRState{}, err
	}
	rec := e.tag(oid)
	st := CRState{Collapsed: col, ContHist: make(map[model.TagID]model.Series)}
	st.CR.From, st.CR.To = rec.cr.From, rec.cr.To
	st.ObjectHist = rec.series.Clone()
	for _, cid := range rec.cands {
		if c := e.tag(cid); c != nil {
			if s := c.series.Clone(); len(s) > 0 {
				st.ContHist[cid] = s
			}
		}
	}
	return st, nil
}

// ImportCollapsed seeds this engine with collapsed state from a previous
// site. The object and candidate containers are registered if unknown, and
// the weights become prior weights added to locally computed evidence.
func (e *Engine) ImportCollapsed(st CollapsedState) {
	e.RegisterObject(st.Object)
	rec := e.tag(st.Object)
	if st.Container >= 0 {
		// The estimate must reference a registered container: a well-formed
		// payload always carries it among the candidates, but a corrupt one
		// may name a tag this site has never seen, and every id reachable
		// from the candidate machinery must resolve in the tag table.
		e.RegisterContainer(st.Container)
		rec.container = st.Container
	} else {
		rec.container = -1
	}
	rec.cands = append([]model.TagID(nil), st.Candidates...)
	rec.priorW = append([]float64(nil), st.Weights...)
	rec.priorDefault = st.DefaultWeight
	// Migrated candidates and priors arrive outside the series-version
	// change signal, so flag the record explicitly: the next candidate
	// build must not keep the pre-import list.
	e.markDirty(rec)
	rec.candValid = false
	for _, cid := range st.Candidates {
		e.RegisterContainer(cid)
	}
}

// ImportCR seeds this engine with critical-region state from a previous
// site: collapsed weights minus the shipped readings' own contribution is
// approximated by importing the weights as-is and merging the readings,
// which lets local inference re-derive evidence inside CR ∪ H̄ exactly.
func (e *Engine) ImportCR(st CRState) {
	e.ImportCollapsed(st.Collapsed)
	rec := e.tag(st.Collapsed.Object)
	rec.series = rec.series.Merge(e.sanitizeSeries(st.ObjectHist))
	rec.seriesVer++
	e.noteMutation(rec, rec.series.First())
	rec.cr = window{From: st.CR.From, To: st.CR.To}
	// Shipped readings are re-counted locally, so zero the prior weights to
	// avoid double counting; the shipped history is what preserves
	// revisability (Section 4.1).
	for i := range rec.priorW {
		rec.priorW[i] = 0
	}
	rec.priorDefault = 0
	for cid, s := range st.ContHist {
		e.RegisterContainer(cid)
		c := e.tag(cid)
		c.series = c.series.Merge(e.sanitizeSeries(s))
		c.seriesVer++
		e.noteMutation(c, c.series.First())
	}
}

// sanitizeSeries clamps a migrated series to this site's observation
// model: reader bits beyond the site's layout are dropped (a corrupt or
// hostile payload must never index past the likelihood tables), and
// readings that end up empty, sit at negative epochs, or break epoch
// order are removed. A well-formed payload from a real exporter passes
// through untouched, so sanitizing never perturbs deterministic replay.
func (e *Engine) sanitizeSeries(s model.Series) model.Series {
	valid := ^model.Mask(0)
	if n := e.lik.N(); n < 64 {
		valid = model.Mask(1)<<uint(n) - 1
	}
	clean := true
	prev := model.Epoch(-1)
	for _, rd := range s {
		if rd.T <= prev || rd.Mask&^valid != 0 || rd.Mask&valid == 0 {
			clean = false
			break
		}
		prev = rd.T
	}
	if clean {
		return s
	}
	out := make(model.Series, 0, len(s))
	prev = -1
	for _, rd := range s {
		m := rd.Mask & valid
		if rd.T <= prev || m == 0 {
			continue
		}
		prev = rd.T
		out = append(out, model.Reading{T: rd.T, Mask: m})
	}
	return out
}

// AppendCollapsed appends collapsed state to dst in the wire format whose
// byte count the communication-cost experiments (Table 5) measure.
func AppendCollapsed(dst []byte, st CollapsedState) []byte {
	bw := model.Writer(dst)
	bw.Uvarint(uint64(uint32(st.Object)))
	bw.Varint(int64(st.Container))
	bw.F64(st.DefaultWeight)
	bw.Uvarint(uint64(len(st.Candidates)))
	for i, c := range st.Candidates {
		bw.Uvarint(uint64(uint32(c)))
		bw.F64(st.Weights[i])
	}
	return bw
}

// DecodeCollapsed reverses AppendCollapsed.
func DecodeCollapsed(r *model.Reader) (CollapsedState, error) {
	st := CollapsedState{
		Object:        model.TagID(r.Uvarint()),
		Container:     model.TagID(r.Varint()),
		DefaultWeight: r.F64(),
	}
	n := r.Count("candidate")
	st.Candidates = make([]model.TagID, 0, model.DecodeCap(n))
	st.Weights = make([]float64, 0, model.DecodeCap(n))
	for range n {
		st.Candidates = append(st.Candidates, model.TagID(r.Uvarint()))
		st.Weights = append(st.Weights, r.F64())
	}
	return st, r.Err()
}

// AppendCR appends critical-region state to dst: the collapsed section
// behind its byte length, the critical region, the object's history and
// each candidate container's history in tag order.
func AppendCR(dst []byte, st CRState) []byte {
	// The section is appended first and its length inserted in front of it,
	// shifting its few dozen bytes.
	start := len(dst)
	dst = AppendCollapsed(dst, st.Collapsed)
	var n [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(n[:], uint64(len(dst)-start))
	bw := model.Writer(slices.Insert(dst, start, n[:k]...))
	bw.Varint(int64(st.CR.From))
	bw.Varint(int64(st.CR.To))
	bw.Series(st.ObjectHist)
	bw.Uvarint(uint64(len(st.ContHist)))
	for _, id := range slices.Sorted(maps.Keys(st.ContHist)) {
		bw.Uvarint(uint64(uint32(id)))
		bw.Series(st.ContHist[id])
	}
	return bw
}

// DecodeCR reverses AppendCR, refusing a collapsed section whose length
// differs from its prefix.
func DecodeCR(r *model.Reader) (CRState, error) {
	var st CRState
	colLen := r.Uvarint()
	before := r.Len()
	col, err := DecodeCollapsed(r)
	if err != nil {
		return st, err
	}
	if used := before - r.Len(); uint64(used) != colLen {
		return st, fmt.Errorf("rfinfer: collapsed section is %d bytes, its prefix says %d", used, colLen)
	}
	st.Collapsed = col
	st.CR.From = model.Epoch(r.Varint())
	st.CR.To = model.Epoch(r.Varint())
	st.ObjectHist = r.Series("object reading")
	n := r.Count("container history")
	st.ContHist = make(map[model.TagID]model.Series, model.DecodeCap(n))
	for range n {
		id := model.TagID(r.Uvarint())
		st.ContHist[id] = r.Series("container reading")
	}
	return st, r.Err()
}
