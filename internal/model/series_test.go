package model

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestSeriesAddInOrder(t *testing.T) {
	var s Series
	s.Add(1, 0)
	s.Add(1, 2)
	s.Add(5, 1)
	if len(s) != 2 {
		t.Fatalf("len=%d, want 2", len(s))
	}
	if s.At(1) != Mask(0).Set(0).Set(2) {
		t.Errorf("At(1) = %b", s.At(1))
	}
	if s.At(5) != Mask(0).Set(1) {
		t.Errorf("At(5) = %b", s.At(5))
	}
	if s.At(3) != 0 {
		t.Errorf("At(3) = %b, want 0", s.At(3))
	}
}

func TestSeriesAddOutOfOrder(t *testing.T) {
	var s Series
	s.Add(10, 1)
	s.Add(3, 2)
	s.Add(7, 0)
	s.Add(3, 3)
	if len(s) != 3 {
		t.Fatalf("len=%d, want 3", len(s))
	}
	var prev Epoch = -1
	for _, rd := range s {
		if rd.T <= prev {
			t.Fatalf("epochs not strictly increasing: %v", s)
		}
		prev = rd.T
	}
	if s.At(3) != Mask(0).Set(2).Set(3) {
		t.Errorf("At(3) = %b", s.At(3))
	}
}

// TestSeriesAddProperty: any insertion order yields the same canonical
// series as sorting first.
func TestSeriesAddProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(50)
		type read struct {
			t Epoch
			r Loc
		}
		reads := make([]read, n)
		for i := range reads {
			reads[i] = read{t: Epoch(rng.Intn(20)), r: Loc(rng.Intn(8))}
		}
		var got Series
		for _, rd := range reads {
			got.Add(rd.t, rd.r)
		}
		// Reference: group by epoch.
		byT := map[Epoch]Mask{}
		for _, rd := range reads {
			byT[rd.t] = byT[rd.t].Set(rd.r)
		}
		var want Series
		keys := make([]int, 0, len(byT))
		for k := range byT {
			keys = append(keys, int(k))
		}
		sort.Ints(keys)
		for _, k := range keys {
			want = append(want, Reading{T: Epoch(k), Mask: byT[Epoch(k)]})
		}
		if len(got) == 0 && len(want) == 0 {
			return true
		}
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSeriesWindow(t *testing.T) {
	var s Series
	for _, e := range []Epoch{2, 4, 6, 8, 10} {
		s.Add(e, 0)
	}
	w := s.Window(4, 9)
	if len(w) != 3 || w[0].T != 4 || w[2].T != 8 {
		t.Fatalf("window = %v", w)
	}
	if got := s.CountIn(4, 9); got != 3 {
		t.Fatalf("CountIn = %d", got)
	}
	if got := s.CountIn(11, 20); got != 0 {
		t.Fatalf("CountIn empty = %d", got)
	}
}

func TestSeriesMerge(t *testing.T) {
	var a, b Series
	a.Add(1, 0)
	a.Add(5, 1)
	b.Add(3, 2)
	b.Add(5, 3)
	m := a.Merge(b)
	if len(m) != 3 {
		t.Fatalf("merged len=%d", len(m))
	}
	if m.At(5) != Mask(0).Set(1).Set(3) {
		t.Errorf("merged At(5) = %b", m.At(5))
	}
	// Merge must not mutate inputs.
	if a.At(5) != Mask(0).Set(1) {
		t.Error("merge mutated input")
	}
}

func TestSeriesMergeProperty(t *testing.T) {
	f := func(x, y []uint8) bool {
		var a, b Series
		for _, v := range x {
			a.Add(Epoch(v%32), Loc(v%8))
		}
		for _, v := range y {
			b.Add(Epoch(v%32), Loc(v%8))
		}
		m := a.Merge(b)
		// Every epoch's mask must be the OR of the inputs.
		for e := Epoch(0); e < 32; e++ {
			if m.At(e) != a.At(e)|b.At(e) {
				return false
			}
		}
		// Canonical: strictly increasing epochs, no empty masks.
		var prev Epoch = -1
		for _, rd := range m {
			if rd.T <= prev || rd.Mask == 0 {
				return false
			}
			prev = rd.T
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSeriesFirstLast(t *testing.T) {
	var s Series
	if s.First() != -1 || s.Last() != -1 {
		t.Fatal("empty series first/last")
	}
	s.Add(4, 0)
	s.Add(9, 0)
	if s.First() != 4 || s.Last() != 9 {
		t.Fatalf("first=%d last=%d", s.First(), s.Last())
	}
}

func TestScheduleAndLikelihood(t *testing.T) {
	sched, err := NewSchedule(10, 4, func(r, p int) bool {
		if r < 2 {
			return true // fast readers scan every epoch
		}
		return p == r // slow readers scan once per cycle
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sched.Scans(0, 7) || !sched.Scans(2, 2) || sched.Scans(2, 3) {
		t.Fatal("schedule membership wrong")
	}
	if sched.Phase(23) != 3 {
		t.Fatalf("phase(23)=%d", sched.Phase(23))
	}

	rr := newTestRates(t, 4)
	lik := NewLikelihood(rr, sched)
	// At an epoch where reader 2 does not scan, base must exclude it.
	for a := Loc(0); a < 4; a++ {
		want := 0.0
		for r := Loc(0); r < 4; r++ {
			if sched.Scans(r, 3) {
				want += math.Log1p(-rr.Prob(r, a))
			}
		}
		if diff := lik.Base(3, a) - want; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("Base(3,%d) = %v, want %v", a, lik.Base(3, a), want)
		}
	}
	// MaskLogLik = base + deltas.
	m := Mask(0).Set(1)
	for a := Loc(0); a < 4; a++ {
		want := lik.Base(5, a) + lik.Delta(1, a)
		if diff := lik.MaskLogLik(5, m, a) - want; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("MaskLogLik mismatch at %d", a)
		}
	}
}

func TestAlwaysOn(t *testing.T) {
	s := AlwaysOn(5)
	if s.Cycle() != 1 {
		t.Fatalf("cycle=%d", s.Cycle())
	}
	for r := Loc(0); r < 5; r++ {
		if !s.Scans(r, 12345) {
			t.Fatalf("reader %d not scanning", r)
		}
	}
}

func TestScheduleValidation(t *testing.T) {
	if _, err := NewSchedule(0, 3, func(_, _ int) bool { return true }); err == nil {
		t.Error("zero cycle accepted")
	}
	if _, err := NewSchedule(1, MaxReaders+1, func(_, _ int) bool { return true }); err == nil {
		t.Error("too many readers accepted")
	}
}

func TestLikelihoodUniformBase(t *testing.T) {
	rr := newTestRates(t, 4)
	sched, err := NewSchedule(2, 4, func(r, p int) bool { return p == 0 || r < 2 })
	if err != nil {
		t.Fatal(err)
	}
	lik := NewLikelihood(rr, sched)
	for _, tt := range []Epoch{0, 1, 7} {
		want := 0.0
		for a := Loc(0); a < 4; a++ {
			want += lik.Base(tt, a)
		}
		want /= 4
		if diff := lik.UniformBase(tt) - want; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("UniformBase(%d) = %v, want %v", tt, lik.UniformBase(tt), want)
		}
	}
	// MeanDelta is the location-average of Delta.
	for r := Loc(0); r < 4; r++ {
		want := 0.0
		for a := Loc(0); a < 4; a++ {
			want += lik.Delta(r, a)
		}
		want /= 4
		if diff := lik.MeanDelta(r) - want; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("MeanDelta(%d) = %v, want %v", r, lik.MeanDelta(r), want)
		}
	}
}
