package model

import "sort"

// Series is the reading history of one tag: at most one Reading per epoch,
// sorted by epoch, with empty (all-miss) epochs omitted. The zero value is
// an empty, ready-to-use series.
type Series []Reading

// Add records that reader r detected the tag at epoch t. Appending in epoch
// order is O(1); out-of-order adds fall back to a sorted insert so that
// merged multi-site histories stay canonical.
func (s *Series) Add(t Epoch, r Loc) {
	sl := *s
	if n := len(sl); n > 0 && sl[n-1].T == t {
		sl[n-1].Mask = sl[n-1].Mask.Set(r)
		return
	} else if n == 0 || sl[n-1].T < t {
		*s = append(sl, Reading{T: t, Mask: 0}.withBit(r))
		return
	}
	i := sort.Search(len(sl), func(i int) bool { return sl[i].T >= t })
	if i < len(sl) && sl[i].T == t {
		sl[i].Mask = sl[i].Mask.Set(r)
		return
	}
	sl = append(sl, Reading{})
	copy(sl[i+1:], sl[i:])
	sl[i] = Reading{T: t, Mask: 0}.withBit(r)
	*s = sl
}

func (rd Reading) withBit(r Loc) Reading {
	rd.Mask = rd.Mask.Set(r)
	return rd
}

// AddMask records a whole epoch mask, merging with an existing entry.
func (s *Series) AddMask(t Epoch, m Mask) {
	if m == 0 {
		return
	}
	sl := *s
	if n := len(sl); n > 0 && sl[n-1].T == t {
		sl[n-1].Mask |= m
		return
	} else if n == 0 || sl[n-1].T < t {
		*s = append(sl, Reading{T: t, Mask: m})
		return
	}
	i := sort.Search(len(sl), func(i int) bool { return sl[i].T >= t })
	if i < len(sl) && sl[i].T == t {
		sl[i].Mask |= m
		return
	}
	sl = append(sl, Reading{})
	copy(sl[i+1:], sl[i:])
	sl[i] = Reading{T: t, Mask: m}
	*s = sl
}

// At returns the mask at epoch t (zero if the tag was not read then).
func (s Series) At(t Epoch) Mask {
	i := sort.Search(len(s), func(i int) bool { return s[i].T >= t })
	if i < len(s) && s[i].T == t {
		return s[i].Mask
	}
	return 0
}

// Window returns the sub-series with epochs in [from, to). The result
// aliases s; callers must not mutate it.
func (s Series) Window(from, to Epoch) Series {
	lo := sort.Search(len(s), func(i int) bool { return s[i].T >= from })
	hi := sort.Search(len(s), func(i int) bool { return s[i].T >= to })
	return s[lo:hi]
}

// First returns the first recorded epoch, or -1 if empty.
func (s Series) First() Epoch {
	if len(s) == 0 {
		return -1
	}
	return s[0].T
}

// Last returns the last recorded epoch, or -1 if empty.
func (s Series) Last() Epoch {
	if len(s) == 0 {
		return -1
	}
	return s[len(s)-1].T
}

// Merge returns the union of two series, OR-ing masks at shared epochs.
func (s Series) Merge(other Series) Series {
	out := make(Series, 0, len(s)+len(other))
	i, j := 0, 0
	for i < len(s) && j < len(other) {
		switch {
		case s[i].T < other[j].T:
			out = append(out, s[i])
			i++
		case s[i].T > other[j].T:
			out = append(out, other[j])
			j++
		default:
			out = append(out, Reading{T: s[i].T, Mask: s[i].Mask | other[j].Mask})
			i, j = i+1, j+1
		}
	}
	out = append(out, s[i:]...)
	out = append(out, other[j:]...)
	return out
}

// Clone returns an independent copy.
func (s Series) Clone() Series {
	out := make(Series, len(s))
	copy(out, s)
	return out
}

// CountIn returns how many recorded epochs fall in [from, to).
func (s Series) CountIn(from, to Epoch) int {
	lo := sort.Search(len(s), func(i int) bool { return s[i].T >= from })
	hi := sort.Search(len(s), func(i int) bool { return s[i].T >= to })
	return hi - lo
}
