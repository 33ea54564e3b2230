package rfinfer

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"

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

// EncodeCollapsed serializes collapsed state to the wire format whose byte
// count the communication-cost experiments (Table 5) measure.
func EncodeCollapsed(w io.Writer, st CollapsedState) error {
	bw := &stickyWriter{w: w}
	bw.uvarint(uint64(uint32(st.Object)))
	bw.varint(int64(st.Container))
	bw.u64(math.Float64bits(st.DefaultWeight))
	bw.uvarint(uint64(len(st.Candidates)))
	for i, c := range st.Candidates {
		bw.uvarint(uint64(uint32(c)))
		bw.u64(math.Float64bits(st.Weights[i]))
	}
	return bw.err
}

// DecodeCollapsed reverses EncodeCollapsed.
func DecodeCollapsed(r io.ByteReader) (CollapsedState, error) {
	br := &stickyReader{r: r}
	var st CollapsedState
	st.Object = model.TagID(br.uvarint())
	st.Container = model.TagID(br.varint())
	st.DefaultWeight = math.Float64frombits(br.u64())
	n := br.uvarint()
	if n > model.MaxDecodeElems {
		return st, fmt.Errorf("rfinfer: implausible candidate count %d", n)
	}
	st.Candidates = make([]model.TagID, 0, model.DecodeCap(n))
	st.Weights = make([]float64, 0, model.DecodeCap(n))
	for i := uint64(0); i < n && br.err == nil; i++ {
		st.Candidates = append(st.Candidates, model.TagID(br.uvarint()))
		st.Weights = append(st.Weights, math.Float64frombits(br.u64()))
	}
	return st, br.err
}

// EncodeCR serializes critical-region state.
func EncodeCR(w io.Writer, st CRState) error {
	var buf bytes.Buffer
	if err := EncodeCollapsed(&buf, st.Collapsed); err != nil {
		return err
	}
	bw := &stickyWriter{w: w}
	bw.uvarint(uint64(buf.Len()))
	if bw.err == nil {
		_, bw.err = w.Write(buf.Bytes())
	}
	bw.varint(int64(st.CR.From))
	bw.varint(int64(st.CR.To))
	encodeSeries(bw, st.ObjectHist)
	bw.uvarint(uint64(len(st.ContHist)))
	ids := make([]model.TagID, 0, len(st.ContHist))
	for id := range st.ContHist {
		ids = append(ids, id)
	}
	sortTagIDs(ids)
	for _, id := range ids {
		bw.uvarint(uint64(uint32(id)))
		encodeSeries(bw, st.ContHist[id])
	}
	return bw.err
}

// DecodeCR reverses EncodeCR.
func DecodeCR(r io.ByteReader) (CRState, error) {
	br := &stickyReader{r: r}
	var st CRState
	colLen := br.uvarint()
	_ = colLen
	col, err := DecodeCollapsed(r)
	if err != nil {
		return st, err
	}
	st.Collapsed = col
	st.CR.From = model.Epoch(br.varint())
	st.CR.To = model.Epoch(br.varint())
	st.ObjectHist = decodeSeries(br)
	n := br.uvarint()
	if n > model.MaxDecodeElems {
		return st, fmt.Errorf("rfinfer: implausible container-history count %d", n)
	}
	st.ContHist = make(map[model.TagID]model.Series, model.DecodeCap(n))
	for i := uint64(0); i < n && br.err == nil; i++ {
		id := model.TagID(br.uvarint())
		st.ContHist[id] = decodeSeries(br)
	}
	return st, br.err
}

func encodeSeries(bw *stickyWriter, s model.Series) {
	bw.uvarint(uint64(len(s)))
	var prev model.Epoch
	for _, rd := range s {
		bw.uvarint(uint64(rd.T - prev))
		prev = rd.T
		bw.uvarint(uint64(rd.Mask))
	}
}

func decodeSeries(br *stickyReader) model.Series {
	n := br.uvarint()
	if n > model.MaxDecodeElems {
		if br.err == nil {
			br.err = fmt.Errorf("rfinfer: implausible series length %d", n)
		}
		return nil
	}
	s := make(model.Series, 0, model.DecodeCap(n))
	var prev model.Epoch
	for i := uint64(0); i < n && br.err == nil; i++ {
		prev += model.Epoch(br.uvarint())
		s = append(s, model.Reading{T: prev, Mask: model.Mask(br.uvarint())})
	}
	return s
}

func sortTagIDs(ids []model.TagID) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}

type stickyWriter struct {
	w   io.Writer
	buf [binary.MaxVarintLen64]byte
	err error
}

func (b *stickyWriter) uvarint(v uint64) {
	if b.err != nil {
		return
	}
	n := binary.PutUvarint(b.buf[:], v)
	_, b.err = b.w.Write(b.buf[:n])
}

func (b *stickyWriter) varint(v int64) {
	if b.err != nil {
		return
	}
	n := binary.PutVarint(b.buf[:], v)
	_, b.err = b.w.Write(b.buf[:n])
}

func (b *stickyWriter) u64(v uint64) {
	if b.err != nil {
		return
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	_, b.err = b.w.Write(buf[:])
}

type stickyReader struct {
	r   io.ByteReader
	err error
}

func (b *stickyReader) uvarint() uint64 {
	if b.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(b.r)
	if err != nil {
		b.err = err
	}
	return v
}

func (b *stickyReader) varint() int64 {
	if b.err != nil {
		return 0
	}
	v, err := binary.ReadVarint(b.r)
	if err != nil {
		b.err = err
	}
	return v
}

func (b *stickyReader) u64() uint64 {
	if b.err != nil {
		return 0
	}
	var buf [8]byte
	for i := range buf {
		c, err := b.r.ReadByte()
		if err != nil {
			b.err = err
			return 0
		}
		buf[i] = c
	}
	return binary.LittleEndian.Uint64(buf[:])
}
