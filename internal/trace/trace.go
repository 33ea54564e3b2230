// Package trace defines the on-disk and in-memory representation of an RFID
// trace: the reader layout, the raw readings for every tag, and the ground
// truth (true locations and containment over time) that the simulator
// records and the evaluation compares against.
//
// The package also implements the binary wire encoding used to account for
// communication costs. The centralized baseline of Table 5 ships raw
// readings with gzip compression; EncodeReadings/GzipSize reproduce exactly
// that accounting.
package trace

import (
	"fmt"
	"sort"

	"rfidtrack/internal/model"
)

// ReaderKind classifies a reader by its role in a warehouse.
type ReaderKind uint8

const (
	// ReaderEntry scans pallets arriving at the entry door.
	ReaderEntry ReaderKind = iota
	// ReaderBelt scans cases one at a time on the conveyor belt.
	ReaderBelt
	// ReaderShelf scans resident cases on a shelf (overlapping ranges).
	ReaderShelf
	// ReaderExit scans pallets leaving through the exit door.
	ReaderExit
	// ReaderMobile is a mobile reader sweeping shelf aisles (Section 5.3).
	ReaderMobile
)

// String returns the lower-case role name.
func (k ReaderKind) String() string {
	switch k {
	case ReaderEntry:
		return "entry"
	case ReaderBelt:
		return "belt"
	case ReaderShelf:
		return "shelf"
	case ReaderExit:
		return "exit"
	case ReaderMobile:
		return "mobile"
	default:
		return fmt.Sprintf("reader(%d)", uint8(k))
	}
}

// Reader describes one reader location within a site.
type Reader struct {
	Loc  model.Loc
	Kind ReaderKind
	Name string
}

// LocSpan records that a tag's true location was Loc during [From, To).
type LocSpan struct {
	From, To model.Epoch
	Loc      model.Loc
}

// ContSpan records that an object's true container was Container during
// [From, To). Container is -1 when the object is unpacked/removed.
type ContSpan struct {
	From, To  model.Epoch
	Container model.TagID
}

// Tag is one tagged object together with its readings and ground truth.
type Tag struct {
	ID       model.TagID
	Kind     model.TagKind
	Name     string
	Readings model.Series
	// TrueLoc is the ground-truth location timeline, sorted by From with
	// non-overlapping spans. Epochs not covered mean "not at this site".
	TrueLoc []LocSpan
	// TrueCont is the ground-truth containment timeline for items (and for
	// cases when pallet-level truth is recorded). Empty for containers.
	TrueCont []ContSpan
}

// TrueLocAt returns the ground-truth location at epoch t, or NoLoc.
func (tg *Tag) TrueLocAt(t model.Epoch) model.Loc {
	spans := tg.TrueLoc
	i := sort.Search(len(spans), func(i int) bool { return spans[i].To > t })
	if i < len(spans) && spans[i].From <= t {
		return spans[i].Loc
	}
	return model.NoLoc
}

// TrueContAt returns the ground-truth container at epoch t, or -1.
func (tg *Tag) TrueContAt(t model.Epoch) model.TagID {
	spans := tg.TrueCont
	i := sort.Search(len(spans), func(i int) bool { return spans[i].To > t })
	if i < len(spans) && spans[i].From <= t {
		return spans[i].Container
	}
	return -1
}

// SetTrueLoc appends or extends the location timeline so that the tag is at
// loc starting at epoch t. Calls must be made in non-decreasing t order.
func (tg *Tag) SetTrueLoc(t model.Epoch, loc model.Loc) {
	n := len(tg.TrueLoc)
	if n > 0 {
		last := &tg.TrueLoc[n-1]
		if last.Loc == loc && last.To >= t {
			return // already there; span will be extended by CloseAt
		}
		if last.To > t {
			last.To = t
		}
	}
	if loc == model.NoLoc {
		return
	}
	tg.TrueLoc = append(tg.TrueLoc, LocSpan{From: t, To: model.Epoch(1<<31 - 1), Loc: loc})
}

// CloseAt clips all open-ended ground-truth spans to end at epoch end.
func (tg *Tag) CloseAt(end model.Epoch) {
	for i := range tg.TrueLoc {
		if tg.TrueLoc[i].To > end {
			tg.TrueLoc[i].To = end
		}
	}
	for i := range tg.TrueCont {
		if tg.TrueCont[i].To > end {
			tg.TrueCont[i].To = end
		}
	}
}

// Trace is a complete observed history for one site (or one merged global
// view): reader layout, measured read rates, and per-tag readings plus
// ground truth.
type Trace struct {
	// Epochs is the trace duration; all readings fall in [0, Epochs).
	Epochs model.Epoch
	// Readers describes every reader location, indexed by Loc.
	Readers []Reader
	// Rates is the measured per-scan read-rate table pi(r, a).
	Rates *model.ReadRates
	// Sched records when each reader interrogates.
	Sched *model.Schedule
	// Tags holds every tag, indexed by TagID.
	Tags []Tag
}

// Likelihood builds the observation model for this trace's rates and
// schedule. A nil schedule means every reader scans every epoch.
func (tr *Trace) Likelihood() *model.Likelihood {
	sched := tr.Sched
	if sched == nil {
		sched = model.AlwaysOn(len(tr.Readers))
	}
	return model.NewLikelihood(tr.Rates, sched)
}

// Items returns the IDs of all item-kind tags.
func (tr *Trace) Items() []model.TagID { return tr.kind(model.KindItem) }

// Cases returns the IDs of all case-kind tags.
func (tr *Trace) Cases() []model.TagID { return tr.kind(model.KindCase) }

// Pallets returns the IDs of all pallet-kind tags.
func (tr *Trace) Pallets() []model.TagID { return tr.kind(model.KindPallet) }

func (tr *Trace) kind(k model.TagKind) []model.TagID {
	var out []model.TagID
	for i := range tr.Tags {
		if tr.Tags[i].Kind == k {
			out = append(out, tr.Tags[i].ID)
		}
	}
	return out
}

// Validate checks structural invariants: tag IDs are dense, readings lie in
// [0, Epochs) with reader bits inside the layout, and ground-truth spans are
// sorted and non-overlapping. It returns the first violation found.
func (tr *Trace) Validate() error {
	if tr.Rates != nil && tr.Rates.N() != len(tr.Readers) {
		return fmt.Errorf("trace: rate table has %d locations, layout has %d", tr.Rates.N(), len(tr.Readers))
	}
	for i := range tr.Tags {
		tg := &tr.Tags[i]
		if tg.ID != model.TagID(i) {
			return fmt.Errorf("trace: tag at index %d has id %d", i, tg.ID)
		}
		var prev model.Epoch = -1
		for _, rd := range tg.Readings {
			if rd.T <= prev {
				return fmt.Errorf("trace: tag %d readings out of order at epoch %d", tg.ID, rd.T)
			}
			prev = rd.T
			if rd.T < 0 || rd.T >= tr.Epochs {
				return fmt.Errorf("trace: tag %d reading at epoch %d outside [0,%d)", tg.ID, rd.T, tr.Epochs)
			}
			if rd.Mask == 0 {
				return fmt.Errorf("trace: tag %d has empty mask at epoch %d", tg.ID, rd.T)
			}
			if hi := 64 - 1; len(tr.Readers) <= hi {
				if rd.Mask>>uint(len(tr.Readers)) != 0 {
					return fmt.Errorf("trace: tag %d mask references reader >= %d", tg.ID, len(tr.Readers))
				}
			}
		}
		if err := checkLocSpans(tg.TrueLoc); err != nil {
			return fmt.Errorf("trace: tag %d: %w", tg.ID, err)
		}
		if err := checkContSpans(tg.TrueCont); err != nil {
			return fmt.Errorf("trace: tag %d: %w", tg.ID, err)
		}
	}
	return nil
}

func checkLocSpans(spans []LocSpan) error {
	var prev model.Epoch
	for i, s := range spans {
		if s.From >= s.To {
			return fmt.Errorf("loc span %d empty [%d,%d)", i, s.From, s.To)
		}
		if i > 0 && s.From < prev {
			return fmt.Errorf("loc span %d overlaps previous", i)
		}
		prev = s.To
	}
	return nil
}

func checkContSpans(spans []ContSpan) error {
	var prev model.Epoch
	for i, s := range spans {
		if s.From >= s.To {
			return fmt.Errorf("cont span %d empty [%d,%d)", i, s.From, s.To)
		}
		if i > 0 && s.From < prev {
			return fmt.Errorf("cont span %d overlaps previous", i)
		}
		prev = s.To
	}
	return nil
}

// NumReadings returns the total number of (epoch, tag, reader) raw readings,
// i.e. the tuple count a centralized system would ship.
func (tr *Trace) NumReadings() int {
	n := 0
	for i := range tr.Tags {
		for _, rd := range tr.Tags[i].Readings {
			n += rd.Mask.Count()
		}
	}
	return n
}
