// Full-engine state snapshots, the durability counterpart of the per-object
// migration state in state.go. A snapshot captures every field that can
// influence future inference output — retained reading histories, candidate
// sets with their migrated prior weights, containment estimates, per-object
// change-point floors and critical regions, the run clock, and the detection
// log — and nothing that cannot: the cross-Run posterior memo is rebuilt
// from scratch after ImportState, which is exact because memoized and fresh
// posteriors are bit-identical (pinned by TestMemoEquivalence). A restored
// engine therefore produces bit-identical Runs from the snapshot point on.
package rfinfer

import (
	"fmt"

	"rfidtrack/internal/model"
)

// ObjectState is one object's snapshot: the collapsed migration tuple
// (candidates, prior weights, containment estimate) stored raw — unlike
// ExportCollapsed, nothing is recomputed or renormalized, so restore is
// bit-exact — plus the change-point floor, critical region and retained
// readings.
type ObjectState struct {
	// Collapsed reuses the migration codec's shape: Object id, Container
	// estimate, Candidates and their prior Weights, DefaultWeight.
	Collapsed CollapsedState
	// CPStart is the change-point search floor (epoch of the last adopted
	// change).
	CPStart model.Epoch
	// CR is the object's current critical region (empty window if none).
	CR struct{ From, To model.Epoch }
	// Series is the object's retained reading history.
	Series model.Series
}

// PosteriorState is a container's location posterior as of the last Run:
// one row of N location probabilities per active epoch, plus the per-epoch
// unread-object evidence qBase. It must round-trip bit-exactly because
// between-Run consumers read it directly — ExportCollapsed derives the
// migrated co-location weights from candidate posteriors, and LocationAt
// serves estimates from them — while the next Run recomputes it from the
// histories anyway (bit-identically, so the memo keys need not survive).
type PosteriorState struct {
	// N is the row stride (reader-location count at compute time).
	N int
	// Epochs are the active epochs; Q holds len(Epochs)*N posterior rows;
	// QBase is the per-epoch uniform-dot evidence.
	Epochs []model.Epoch
	Q      []float64
	QBase  []float64
}

// ContainerState is one container's snapshot: identity, the untagged flag
// (Appendix A.4), the retained reading history, and the last Run's
// posterior.
type ContainerState struct {
	// ID is the container tag.
	ID model.TagID
	// Untagged marks containers without their own tag.
	Untagged bool
	// Series is the container's retained reading history.
	Series model.Series
	// Post is the container's posterior from the most recent Run.
	Post PosteriorState
}

// EngineState is the complete serializable semantic state of an Engine:
// everything a fresh engine needs to continue producing bit-identical
// inference output. Scratch buffers, worker pools and the posterior memo
// are deliberately absent — they are performance state, not semantic state.
type EngineState struct {
	// Now, LastRun and PrevRun are the engine's stream and run clocks.
	Now, LastRun, PrevRun model.Epoch
	// Objects and Containers hold every registered tag's state, sorted by id.
	Objects    []ObjectState
	Containers []ContainerState
	// Detections is the change-point log, in detection order.
	Detections []Detection
}

// ExportState extracts the engine's full semantic state. Unlike
// ExportCollapsed it copies prior weights verbatim (no evidence recompute,
// no normalization): the snapshot must restore the exact values, not an
// equivalent reformulation.
func (e *Engine) ExportState() EngineState {
	// Every slice is materialized non-nil (matching the decoder's
	// allocation style), so an exported state and its wire round trip are
	// reflect.DeepEqual — which is what the recovery tests compare.
	st := EngineState{
		Now:        e.now,
		LastRun:    e.lastRun,
		PrevRun:    e.prevRun,
		Objects:    make([]ObjectState, 0, len(e.objects)),
		Containers: make([]ContainerState, 0, len(e.containers)),
		Detections: make([]Detection, 0, len(e.detections)),
	}
	for _, oid := range e.objects {
		rec := e.tag(oid)
		os := ObjectState{
			Collapsed: CollapsedState{
				Object:        oid,
				Container:     rec.container,
				Candidates:    append(make([]model.TagID, 0, len(rec.cands)), rec.cands...),
				Weights:       make([]float64, len(rec.cands)),
				DefaultWeight: rec.priorDefault,
			},
			CPStart: rec.cpStart,
			Series:  rec.series.Clone(),
		}
		// priorW is maintained aligned with cands (buildCandidates and
		// ImportCollapsed both enforce it); missing entries default to the
		// object's default weight, matching what the next Run would use.
		for i := range os.Collapsed.Weights {
			if i < len(rec.priorW) {
				os.Collapsed.Weights[i] = rec.priorW[i]
			} else {
				os.Collapsed.Weights[i] = rec.priorDefault
			}
		}
		os.CR.From, os.CR.To = rec.cr.From, rec.cr.To
		st.Objects = append(st.Objects, os)
	}
	for _, cid := range e.containers {
		rec := e.tag(cid)
		p := &rec.post
		st.Containers = append(st.Containers, ContainerState{
			ID:       cid,
			Untagged: rec.untagged,
			Series:   rec.series.Clone(),
			Post: PosteriorState{
				N:      p.n,
				Epochs: append(make([]model.Epoch, 0, len(p.epochs)), p.epochs...),
				Q:      append(make([]float64, 0, len(p.q)), p.q...),
				QBase:  append(make([]float64, 0, len(p.qBase)), p.qBase...),
			},
		})
	}
	st.Detections = append(st.Detections, e.detections...)
	return st
}

// ImportState installs a snapshot into the engine, replacing any state the
// affected tags held. Tags named by the snapshot are registered if unknown;
// a tag registered with the opposite kind is an error (the snapshot belongs
// to a different deployment layout). The posterior memo is left invalid, so
// the next Run recomputes every posterior from the restored histories —
// which is bit-identical to the memoized path by the memo-vs-fresh
// invariant. Intended for a freshly built engine during recovery.
func (e *Engine) ImportState(st EngineState) error {
	for i := range st.Objects {
		os := &st.Objects[i]
		oid := os.Collapsed.Object
		if rec := e.tag(oid); rec != nil && rec.isContainer {
			return fmt.Errorf("rfinfer: snapshot object %d is registered as a container", oid)
		}
		e.RegisterObject(oid)
		rec := e.tag(oid)
		if os.Collapsed.Container >= 0 {
			e.RegisterContainer(os.Collapsed.Container)
		}
		rec.container = os.Collapsed.Container
		rec.cands = append(rec.cands[:0], os.Collapsed.Candidates...)
		rec.priorW = append(rec.priorW[:0], os.Collapsed.Weights...)
		rec.priorDefault = os.Collapsed.DefaultWeight
		for _, cid := range os.Collapsed.Candidates {
			e.RegisterContainer(cid)
		}
		rec.cpStart = os.CPStart
		rec.cr = window{From: os.CR.From, To: os.CR.To}
		rec.series = append(rec.series[:0], e.sanitizeSeries(os.Series)...)
		rec.seriesVer++
		// The wholesale replacement voids every incremental carry for the
		// tag: posterior rows, evidence, CR verdict provenance.
		e.markDirty(rec)
		rec.addFloor = epochMin
		rec.evSeq = 0
		rec.ev = nil
		rec.dropped = rec.dropped[:0]
		rec.postValid = false
		rec.computedSeq = 0
	}
	for i := range st.Containers {
		cs := &st.Containers[i]
		if rec := e.tag(cs.ID); rec != nil && !rec.isContainer {
			return fmt.Errorf("rfinfer: snapshot container %d is registered as an object", cs.ID)
		}
		e.RegisterContainer(cs.ID)
		rec := e.tag(cs.ID)
		rec.untagged = cs.Untagged
		rec.series = append(rec.series[:0], e.sanitizeSeries(cs.Series)...)
		rec.seriesVer++
		e.markDirty(rec)
		rec.addFloor = epochMin
		// Restore the posterior for between-Run readers, but leave the memo
		// invalid: the next Run recomputes from the restored histories,
		// which the memo-vs-fresh invariant makes bit-identical. A
		// malformed posterior shape (corrupt snapshot) is dropped rather
		// than indexed.
		if n := cs.Post.N; n >= 0 && len(cs.Post.QBase) == len(cs.Post.Epochs) &&
			len(cs.Post.Q) == len(cs.Post.Epochs)*n {
			rec.post.n = n
			rec.post.epochs = append(rec.post.epochs[:0], cs.Post.Epochs...)
			rec.post.q = append(rec.post.q[:0], cs.Post.Q...)
			rec.post.qBase = append(rec.post.qBase[:0], cs.Post.QBase...)
			// The evidence cells are not restored: the E-step that the
			// invalid memo forces refills them, and computing them here
			// would put n dots per row on the restart path for nothing.
			rec.post.cells = rec.post.cells[:0]
			rec.post.refreshAdv(e.lik)
		} else {
			rec.post = posterior{}
		}
		rec.ev = nil
		rec.dropped = rec.dropped[:0]
		rec.postValid = false
		rec.computedSeq = 0
	}
	e.now = st.Now
	e.lastRun = st.LastRun
	e.prevRun = st.PrevRun
	e.detections = append(e.detections[:0], st.Detections...)
	return nil
}

// engineStateVersion is the AppendEngineState format version.
const engineStateVersion = 1

// AppendEngineState appends a full engine snapshot to dst, reusing the
// migration codecs: CollapsedState for each object's candidate/weight
// tuple and the delta-compressed series encoding for every history.
func AppendEngineState(dst []byte, st EngineState) []byte {
	bw := model.Writer(dst)
	bw.Uvarint(engineStateVersion)
	bw.Varint(int64(st.Now))
	bw.Varint(int64(st.LastRun))
	bw.Varint(int64(st.PrevRun))
	bw.Uvarint(uint64(len(st.Objects)))
	for i := range st.Objects {
		os := &st.Objects[i]
		bw = AppendCollapsed(bw, os.Collapsed)
		bw.Varint(int64(os.CPStart))
		bw.Varint(int64(os.CR.From))
		bw.Varint(int64(os.CR.To))
		bw.Series(os.Series)
	}
	bw.Uvarint(uint64(len(st.Containers)))
	for i := range st.Containers {
		cs := &st.Containers[i]
		bw.Uvarint(uint64(uint32(cs.ID)))
		flags := uint64(0)
		if cs.Untagged {
			flags = 1
		}
		bw.Uvarint(flags)
		bw.Series(cs.Series)
		bw.Uvarint(uint64(cs.Post.N))
		bw.Uvarint(uint64(len(cs.Post.Epochs)))
		var prev model.Epoch
		for _, t := range cs.Post.Epochs {
			bw.Varint(int64(t - prev))
			prev = t
		}
		for _, v := range cs.Post.Q {
			bw.F64(v)
		}
		for _, v := range cs.Post.QBase {
			bw.F64(v)
		}
	}
	bw.Uvarint(uint64(len(st.Detections)))
	for _, d := range st.Detections {
		bw.Uvarint(uint64(uint32(d.Object)))
		bw.Varint(int64(d.At))
		bw.Varint(int64(d.DetectedAt))
		bw.Varint(int64(d.NewContainer))
		bw.F64(d.Delta)
	}
	return bw
}

// DecodeEngineState reverses AppendEngineState, with the same allocation
// clamps as the migration decoders: element counts are bounded before any
// slice is sized, so corrupt bytes cannot balloon memory.
func DecodeEngineState(r *model.Reader) (EngineState, error) {
	var st EngineState
	if v := r.Uvarint(); r.Err() == nil && v != engineStateVersion {
		return st, fmt.Errorf("rfinfer: unsupported engine state version %d", v)
	}
	st.Now = model.Epoch(r.Varint())
	st.LastRun = model.Epoch(r.Varint())
	st.PrevRun = model.Epoch(r.Varint())
	nObj := r.Count("object")
	st.Objects = make([]ObjectState, 0, model.DecodeCap(nObj))
	for range nObj {
		col, err := DecodeCollapsed(r)
		if err != nil {
			return st, err
		}
		os := ObjectState{Collapsed: col, CPStart: model.Epoch(r.Varint())}
		os.CR.From = model.Epoch(r.Varint())
		os.CR.To = model.Epoch(r.Varint())
		os.Series = r.Series("object reading")
		st.Objects = append(st.Objects, os)
	}
	nCont := r.Count("container")
	st.Containers = make([]ContainerState, 0, model.DecodeCap(nCont))
	for range nCont {
		cs := ContainerState{
			ID:       model.TagID(r.Uvarint()),
			Untagged: r.Uvarint()&1 != 0,
			Series:   r.Series("container reading"),
		}
		n := r.Uvarint()
		ne := r.Count("posterior epoch")
		// The posterior matrix is the one quadratic section, so its shape is
		// bounded before any allocation: rows beyond any real reader layout,
		// or more cells than bytes left to hold them, mean corrupt bytes.
		nq := n * uint64(ne)
		if n > 4096 || nq > uint64(r.Len())/8 {
			return st, fmt.Errorf("rfinfer: implausible posterior shape %dx%d", ne, n)
		}
		cs.Post.N = int(n)
		cs.Post.Epochs = make([]model.Epoch, 0, model.DecodeCap(ne))
		var prev model.Epoch
		for range ne {
			prev += model.Epoch(r.Varint())
			cs.Post.Epochs = append(cs.Post.Epochs, prev)
		}
		cs.Post.Q = make([]float64, 0, nq)
		for range nq {
			cs.Post.Q = append(cs.Post.Q, r.F64())
		}
		cs.Post.QBase = make([]float64, 0, model.DecodeCap(ne))
		for range ne {
			cs.Post.QBase = append(cs.Post.QBase, r.F64())
		}
		st.Containers = append(st.Containers, cs)
	}
	nDet := r.Count("detection")
	st.Detections = make([]Detection, 0, model.DecodeCap(nDet))
	for range nDet {
		st.Detections = append(st.Detections, Detection{
			Object:       model.TagID(r.Uvarint()),
			At:           model.Epoch(r.Varint()),
			DetectedAt:   model.Epoch(r.Varint()),
			NewContainer: model.TagID(r.Varint()),
			Delta:        r.F64(),
		})
	}
	return st, r.Err()
}
