package rfinfer

import (
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"rfidtrack/internal/model"
	"rfidtrack/internal/sim"
)

func TestCollapsedRoundTrip(t *testing.T) {
	st := CollapsedState{
		Object:        7,
		Container:     12,
		Candidates:    []model.TagID{12, 13, 15},
		Weights:       []float64{0, -3.5, -120.25},
		DefaultWeight: -400.5,
	}
	buf := AppendCollapsed(nil, st)
	got, err := DecodeCollapsed(model.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st, got) {
		t.Fatalf("got %+v, want %+v", got, st)
	}
}

func TestCollapsedRoundTripProperty(t *testing.T) {
	f := func(obj uint16, cont int16, seed int64) bool {
		rng := mrand(seed)
		n := rng.IntN(8)
		st := CollapsedState{
			Object:        model.TagID(obj),
			Container:     model.TagID(cont),
			DefaultWeight: rng.NormFloat64() * 100,
		}
		for i := 0; i < n; i++ {
			st.Candidates = append(st.Candidates, model.TagID(rng.IntN(1000)))
			st.Weights = append(st.Weights, rng.NormFloat64()*50)
		}
		buf := AppendCollapsed(nil, st)
		got, err := DecodeCollapsed(model.NewReader(buf))
		if err != nil {
			return false
		}
		if len(st.Candidates) == 0 {
			return len(got.Candidates) == 0 && got.Object == st.Object &&
				got.Container == st.Container && got.DefaultWeight == st.DefaultWeight
		}
		return reflect.DeepEqual(st, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func mrand(seed int64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), 0xabcdef))
}

func TestCRStateRoundTrip(t *testing.T) {
	var obj, c1 model.Series
	obj.Add(5, 1)
	obj.Add(9, 2)
	c1.Add(5, 1)
	st := CRState{
		Collapsed: CollapsedState{
			Object: 3, Container: 10,
			Candidates: []model.TagID{10}, Weights: []float64{0},
		},
		ObjectHist: obj,
		ContHist:   map[model.TagID]model.Series{10: c1},
	}
	st.CR.From, st.CR.To = 4, 10
	buf := AppendCR(nil, st)
	got, err := DecodeCR(model.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st.Collapsed, got.Collapsed) || st.CR != got.CR {
		t.Fatalf("header mismatch: %+v vs %+v", got, st)
	}
	if !reflect.DeepEqual(st.ObjectHist, got.ObjectHist) {
		t.Fatalf("object history mismatch")
	}
	if !reflect.DeepEqual(st.ContHist[10], got.ContHist[10]) {
		t.Fatalf("container history mismatch")
	}
}

// TestDecodeCRChecksCollapsedLength pins that a CR payload whose
// collapsed-section length prefix disagrees with the bytes that section
// takes is refused: a peer's migration payload is not trusted to be well
// formed.
func TestDecodeCRChecksCollapsedLength(t *testing.T) {
	st := CRState{
		Collapsed: CollapsedState{
			Object: 3, Container: 10,
			Candidates: []model.TagID{10, 11}, Weights: []float64{0, -2},
		},
		ObjectHist: model.Series{{T: 5, Mask: 1}},
		ContHist:   map[model.TagID]model.Series{10: {{T: 5, Mask: 1}}},
	}
	good := AppendCR(nil, st)
	if _, err := DecodeCR(model.NewReader(good)); err != nil {
		t.Fatalf("well-formed payload: %v", err)
	}
	colLen := good[0] // below 128, so a one-byte varint
	for _, prefix := range []byte{0, colLen - 5, colLen - 1, colLen + 1, colLen + 3} {
		bad := append([]byte{prefix}, good[1:]...)
		if _, err := DecodeCR(model.NewReader(bad)); err == nil {
			t.Errorf("prefix %d (section is %d bytes) decoded", prefix, colLen)
		}
	}
}

func TestExportCollapsedNormalized(t *testing.T) {
	lik := testLik(t)
	e := New(lik, DefaultConfig())
	rng := rand.New(rand.NewPCG(5, 6))
	e.RegisterContainer(10)
	e.RegisterContainer(11)
	e.RegisterObject(1)
	synthesize(t, e, rng, lik, 10, 2, 150)
	synthesize(t, e, rng, lik, 11, 3, 150)
	synthesize(t, e, rng, lik, 1, 2, 150)
	e.Run(149)

	st, err := e.ExportCollapsed(1)
	if err != nil {
		t.Fatal(err)
	}
	if st.Container != 10 {
		t.Fatalf("exported container %d", st.Container)
	}
	maxW := math.Inf(-1)
	for _, w := range st.Weights {
		if w > maxW {
			maxW = w
		}
		if w > 1e-9 {
			t.Fatalf("weight above zero after normalization: %v", st.Weights)
		}
	}
	if math.Abs(maxW) > 1e-9 {
		t.Fatalf("best weight not normalized to 0: %v", maxW)
	}
	if st.DefaultWeight > 0 {
		t.Fatalf("default weight positive: %v", st.DefaultWeight)
	}
	// The true container must carry the top weight.
	for i, c := range st.Candidates {
		if c == 10 && math.Abs(st.Weights[i]) > 1e-9 {
			t.Fatalf("true container weight %v, want 0", st.Weights[i])
		}
	}

	if _, err := e.ExportCollapsed(10); err == nil {
		t.Error("exported collapsed state for a container")
	}
	if _, err := e.ExportCollapsed(999); err == nil {
		t.Error("exported collapsed state for unknown tag")
	}
}

// TestMigrationPreservesContainment: export at one engine, import into a
// fresh one, and verify the containment estimate survives with no local
// data, then remains correct once local data accumulates.
func TestMigrationPreservesContainment(t *testing.T) {
	lik := testLik(t)
	rng := rand.New(rand.NewPCG(7, 8))
	src := New(lik, DefaultConfig())
	src.RegisterContainer(10)
	src.RegisterContainer(11)
	src.RegisterObject(1)
	synthesize(t, src, rng, lik, 10, 2, 150)
	synthesize(t, src, rng, lik, 11, 3, 150)
	synthesize(t, src, rng, lik, 1, 2, 150)
	src.Run(149)

	st, err := src.ExportCollapsed(1)
	if err != nil {
		t.Fatal(err)
	}
	dst := New(lik, DefaultConfig())
	dst.ImportCollapsed(st)
	if got := dst.Container(1); got != 10 {
		t.Fatalf("container after import = %d, want 10", got)
	}
	// With only co-shelving evidence at the destination (both the true
	// container and a decoy on the same shelf), the migrated weights must
	// keep the assignment on the true container.
	dst.RegisterContainer(99) // local decoy co-located with everything
	for ep := model.Epoch(200); ep < 300; ep++ {
		var m model.Mask
		scan := lik.Schedule().ScanMask(ep)
		for scan != 0 {
			r := scan.First()
			if rng.Float64() < lik.Rates().Prob(r, 3) {
				m = m.Set(r)
			}
			scan &= scan - 1
		}
		if m != 0 {
			for _, id := range []model.TagID{1, 10, 99} {
				if err := dst.ObserveMask(ep, id, m); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	dst.Run(299)
	if got := dst.Container(1); got != 10 {
		t.Fatalf("container after ambiguous local data = %d, want 10", got)
	}
}

// TestImportCRRederivesEvidence: the CR variant ships readings, so the
// destination recomputes evidence from them.
func TestImportCRRederivesEvidence(t *testing.T) {
	lik := testLik(t)
	rng := rand.New(rand.NewPCG(9, 10))
	src := New(lik, DefaultConfig())
	src.RegisterContainer(10)
	src.RegisterContainer(11)
	src.RegisterObject(1)
	synthesize(t, src, rng, lik, 10, 2, 150)
	synthesize(t, src, rng, lik, 11, 3, 150)
	synthesize(t, src, rng, lik, 1, 2, 150)
	src.Run(149)

	st, err := src.ExportCR(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.ObjectHist) == 0 {
		t.Fatal("CR export shipped no readings")
	}
	dst := New(lik, DefaultConfig())
	dst.ImportCR(st)
	dst.Run(150)
	if got := dst.Container(1); got != 10 {
		t.Fatalf("container from re-derived evidence = %d, want 10", got)
	}
}

// TestStateFitsTagMemory: the paper's footnote 1 motivates holding the
// migrated computation state in the tag's own 4-64 KB memory to enable
// "querying anytime anywhere". The collapsed state must fit comfortably
// in the smallest (4 KB) tags even with dozens of candidates.
func TestStateFitsTagMemory(t *testing.T) {
	st := CollapsedState{Object: 1 << 20, Container: 1 << 19, DefaultWeight: -1234.5}
	for i := 0; i < 48; i++ {
		st.Candidates = append(st.Candidates, model.TagID(1<<19+i))
		st.Weights = append(st.Weights, -float64(i)*17.25)
	}
	buf := AppendCollapsed(nil, st)
	if len(buf) > 1024 {
		t.Errorf("collapsed state %d bytes; must fit 4 KB tag memory with room to spare", len(buf))
	}
	t.Logf("collapsed state with 48 candidates: %d bytes", len(buf))
}

// raceEnabled is set by race_test.go under the race detector.
var raceEnabled bool

// refExportCollapsed is ExportCollapsed as it was before stale evidence was
// recomputed into the scratch: into a throwaway objEvidence, scored from
// nothing. It is the reference the scratch-held build is held against.
func refExportCollapsed(e *Engine, oid model.TagID) CollapsedState {
	rec := e.tag(oid)
	st := CollapsedState{
		Object:     oid,
		Container:  rec.container,
		Candidates: append([]model.TagID(nil), rec.cands...),
		Weights:    make([]float64, len(rec.cands)),
	}
	ev := rec.ev
	if !e.evidenceCurrent(rec) {
		var tmp objEvidence
		s := e.getScratch()
		e.scoreEvidence(&tmp, rec, s)
		scratches.Put(s)
		ev = &tmp
	}
	if ev != nil && len(ev.totals) == len(st.Weights) {
		copy(st.Weights, ev.totals)
		st.DefaultWeight = ev.uniTotal
	} else {
		copy(st.Weights, rec.priorW)
		st.DefaultWeight = rec.priorDefault
	}
	if len(st.Weights) > 0 {
		maxW := slices.Max(st.Weights)
		for i := range st.Weights {
			st.Weights[i] -= maxW
		}
		st.DefaultWeight -= maxW
	}
	return st
}

// TestStaleExportMatchesThrowaway pins ExportCollapsed's recompute of stale
// evidence, which builds into an objEvidence held by the borrowed scratch:
// on the change-heavy warehouse with its straggler burst, with change-point
// detection off and on, every object exported between an interval's readings and its Run —
// most of them stale, one after another through the same scratch — exports
// weights Float64bits-equal to a build into a throwaway, and a repeated
// stale export allocates only the two slices it returns.
func TestStaleExportMatchesThrowaway(t *testing.T) {
	world := sim.DefaultConfig()
	world.Epochs = 1500
	world.ItemsPerCase = 6
	world.ShelfDwell = 200
	world.AnomalyEvery = 20
	feed := newSimFeed(t, world)
	const interval = 100
	for _, mode := range []struct {
		name  string
		delta float64
	}{{"detection-off", 0}, {"detection-on", 40}} {
		t.Run(mode.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.RecentHistory = 200
			cfg.Delta = mode.delta
			e := feed.engine(cfg)
			feed.rewind()
			stale, measured := 0, false
			for now := model.Epoch(interval); now <= feed.tr.Epochs; now += interval {
				feed.through(t, now, e)
				if now == 1300 {
					injectStragglers(t, now-2*interval, e)
				}
				staleID := model.TagID(-1)
				for _, oid := range e.objects {
					if rec := e.tag(oid); !e.evidenceCurrent(rec) {
						stale++
						if len(rec.cands) >= 2 && len(rec.series) > 0 {
							staleID = oid
						}
					}
					want := refExportCollapsed(e, oid)
					got, err := e.ExportCollapsed(oid)
					if err != nil {
						t.Fatal(err)
					}
					same := got.Object == want.Object && got.Container == want.Container &&
						slices.Equal(got.Candidates, want.Candidates) &&
						math.Float64bits(got.DefaultWeight) == math.Float64bits(want.DefaultWeight) &&
						len(got.Weights) == len(want.Weights)
					for i := 0; same && i < len(got.Weights); i++ {
						same = math.Float64bits(got.Weights[i]) == math.Float64bits(want.Weights[i])
					}
					if !same {
						t.Fatalf("before the Run at %d: object %d exports %+v, throwaway build %+v", now-1, oid, got, want)
					}
				}
				if now == 800 && staleID >= 0 && !raceEnabled {
					measured = true
					allocs := testing.AllocsPerRun(20, func() {
						if _, err := e.ExportCollapsed(staleID); err != nil {
							t.Fatal(err)
						}
					})
					if allocs > 2 {
						t.Fatalf("a stale export of object %d allocates %.1f times, want at most 2", staleID, allocs)
					}
				}
				e.Run(now - 1)
			}
			if stale == 0 || (!measured && !raceEnabled) {
				t.Fatal("no export met stale evidence; the test is vacuous")
			}
		})
	}
}
