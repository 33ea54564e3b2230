package stream

import (
	"io"
	"math"
	"sort"

	"rfidtrack/internal/model"
)

// SeqState is the per-object computation state of a SEQ(A+) pattern block
// (Appendix B): the current automaton position, the minimum values needed
// for future evaluation (the first matched event's time), and the values
// the query returns (the collected measurements). It is the unit of query
// state migration and centroid-based sharing.
type SeqState struct {
	// Started reports whether the partition has matched A[1].
	Started bool
	// Fired reports whether the pattern already emitted for this episode.
	Fired bool
	// First is A[1].time.
	First model.Epoch
	// Last is A[A.len].time, used for gap-based episode resets.
	Last model.Epoch
	// Values are the collected A[].temp measurements the query returns.
	Values []float64
}

// reset clears the episode.
func (s *SeqState) reset() { *s = SeqState{} }

// Match is an emitted pattern match.
type Match struct {
	Tag    model.TagID
	First  model.Epoch
	Last   model.Epoch
	Values []float64
}

// SeqPattern implements "Pattern SEQ(A+) Where A[i].tag_id = A[1].tag_id
// and A[A.len].time > A[1].time + Duration": a per-tag automaton that
// accumulates qualifying events and emits once the episode spans Duration.
//
// MaxGap bounds the spacing between consecutive events of one episode:
// a longer silence (e.g. the object stopped qualifying for the inner query)
// resets the episode. Emit fires at most once per episode.
type SeqPattern struct {
	// Duration is the required span between the first and last event.
	Duration model.Epoch
	// MaxGap resets an episode when consecutive events are further apart.
	// Zero disables gap-based resets (the literal CQL semantics).
	MaxGap model.Epoch
	// MinEvents is the minimum episode length (event count) before the
	// pattern may fire; zero or one means any length.
	MinEvents int
	// OnMatch receives emitted matches.
	OnMatch func(Match)

	parts map[model.TagID]*SeqState
}

// NewSeqPattern returns an empty pattern operator.
func NewSeqPattern(duration, maxGap model.Epoch, onMatch func(Match)) *SeqPattern {
	return &SeqPattern{
		Duration: duration,
		MaxGap:   maxGap,
		OnMatch:  onMatch,
		parts:    make(map[model.TagID]*SeqState),
	}
}

// Push implements Operator.
func (p *SeqPattern) Push(tu Tuple) {
	st := p.parts[tu.Tag]
	if st == nil {
		st = &SeqState{}
		p.parts[tu.Tag] = st
	}
	if st.Started && p.MaxGap > 0 && tu.T-st.Last > p.MaxGap {
		st.reset()
	}
	if !st.Started {
		st.Started = true
		st.First = tu.T
	}
	st.Last = tu.T
	st.Values = append(st.Values, tu.Temp)
	if !st.Fired && st.Last > st.First+p.Duration && len(st.Values) >= p.MinEvents {
		st.Fired = true
		if p.OnMatch != nil {
			p.OnMatch(Match{Tag: tu.Tag, First: st.First, Last: st.Last, Values: st.Values})
		}
	}
}

// Reset clears the episode state of one partition (used when the qualifying
// condition is observed to have stopped holding, e.g. the product went back
// into a freezer).
func (p *SeqPattern) Reset(tag model.TagID) {
	if st, ok := p.parts[tag]; ok {
		st.reset()
	}
}

// State returns the partition state for a tag (nil if none).
func (p *SeqPattern) State(tag model.TagID) *SeqState { return p.parts[tag] }

// SetState installs migrated partition state for a tag.
func (p *SeqPattern) SetState(tag model.TagID, st SeqState) {
	cp := st
	cp.Values = append([]float64(nil), st.Values...)
	p.parts[tag] = &cp
}

// DropState removes a tag's partition state (after it migrated away).
func (p *SeqPattern) DropState(tag model.TagID) { delete(p.parts, tag) }

// Partitions returns the tags with live state, sorted.
func (p *SeqPattern) Partitions() []model.TagID {
	out := make([]model.TagID, 0, len(p.parts))
	for id := range p.parts {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// EncodeState serializes one partition's state to the migration wire
// format: a flags byte, the two epochs and the values, each value's IEEE-754
// bits as a varint.
func EncodeState(w io.Writer, st *SeqState) error {
	var flags byte
	if st.Started {
		flags |= 1
	}
	if st.Fired {
		flags |= 2
	}
	bw := model.NewWriter(w)
	bw.Byte(flags)
	bw.Uvarint(uint64(uint32(st.First)))
	bw.Uvarint(uint64(uint32(st.Last)))
	bw.Uvarint(uint64(len(st.Values)))
	for _, v := range st.Values {
		bw.Uvarint(math.Float64bits(v))
	}
	return bw.Err()
}

// DecodeState reverses EncodeState.
func DecodeState(r *model.Reader) (SeqState, error) {
	flags := r.Byte()
	st := SeqState{
		Started: flags&1 != 0,
		Fired:   flags&2 != 0,
		First:   model.Epoch(int32(r.Uvarint())),
		Last:    model.Epoch(int32(r.Uvarint())),
	}
	n := r.Count("pattern value")
	st.Values = make([]float64, 0, model.DecodeCap(n))
	for range n {
		st.Values = append(st.Values, math.Float64frombits(r.Uvarint()))
	}
	return st, r.Err()
}
