package rfinfer

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"

	"rfidtrack/internal/model"
)

// testLik builds a 4-location observation model: readers 0,1 scan every
// epoch; readers 2,3 are "shelves" scanning every 5 epochs with overlap.
func testLik(t *testing.T) *model.Likelihood {
	t.Helper()
	pi := [][]float64{
		{0.8, 0, 0, 0},
		{0, 0.8, 0, 0},
		{0, 0, 0.8, 0.3},
		{0, 0, 0.3, 0.8},
	}
	rates, err := model.NewReadRates(pi)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := model.NewSchedule(5, 4, func(r, p int) bool {
		if r < 2 {
			return true
		}
		return p == r
	})
	if err != nil {
		t.Fatal(err)
	}
	return model.NewLikelihood(rates, sched)
}

// synthesize generates readings for a container with objects co-located at
// a fixed location over [0, epochs), plus a decoy container at another
// location, and feeds them to the engine.
func synthesize(t *testing.T, e *Engine, rng *rand.Rand, lik *model.Likelihood,
	id model.TagID, at model.Loc, epochs model.Epoch) {
	t.Helper()
	for ep := model.Epoch(0); ep < epochs; ep++ {
		var m model.Mask
		scan := lik.Schedule().ScanMask(ep)
		for scan != 0 {
			r := scan.First()
			if rng.Float64() < lik.Rates().Prob(r, at) {
				m = m.Set(r)
			}
			scan &= scan - 1
		}
		if m != 0 {
			if err := e.ObserveMask(ep, id, m); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestEngineBasicInference(t *testing.T) {
	lik := testLik(t)
	e := New(lik, DefaultConfig())
	rng := rand.New(rand.NewPCG(1, 2))

	e.RegisterContainer(100) // true container at loc 2
	e.RegisterContainer(101) // decoy at loc 3
	for o := model.TagID(0); o < 5; o++ {
		e.RegisterObject(o)
	}
	synthesize(t, e, rng, lik, 100, 2, 200)
	synthesize(t, e, rng, lik, 101, 3, 200)
	for o := model.TagID(0); o < 5; o++ {
		synthesize(t, e, rng, lik, o, 2, 200)
	}
	res := e.Run(199)
	if res.Iterations < 1 {
		t.Fatal("no EM iterations")
	}
	for o := model.TagID(0); o < 5; o++ {
		if got := e.Container(o); got != 100 {
			t.Errorf("object %d assigned to %d, want 100", o, got)
		}
		if loc := e.LocationAt(o, 199); loc != 2 {
			t.Errorf("object %d located at %d, want 2", o, loc)
		}
	}
	if loc := e.LocationAt(101, 199); loc != 3 {
		t.Errorf("decoy located at %d, want 3", loc)
	}
}

func TestEngineRejectsUnknownTags(t *testing.T) {
	e := New(testLik(t), DefaultConfig())
	if err := e.Observe(0, 42, 0); err == nil {
		t.Error("unregistered tag accepted")
	}
	e.RegisterObject(42)
	if err := e.Observe(0, 42, 9); err == nil {
		t.Error("out-of-range reader accepted")
	}
	if err := e.Observe(0, 42, 1); err != nil {
		t.Errorf("valid reading rejected: %v", err)
	}
}

func TestEngineEmptyRun(t *testing.T) {
	e := New(testLik(t), DefaultConfig())
	res := e.Run(100) // no tags at all
	if res.Iterations != 1 {
		t.Fatalf("iterations = %d", res.Iterations)
	}
	e.RegisterObject(1)
	e.RegisterContainer(2)
	e.Run(200) // tags but no readings
	if got := e.Container(1); got != -1 {
		t.Errorf("container inferred from nothing: %d", got)
	}
	if loc := e.LocationAt(1, 200); loc != model.NoLoc {
		t.Errorf("location inferred from nothing: %d", loc)
	}
}

func TestRegisterIdempotent(t *testing.T) {
	e := New(testLik(t), DefaultConfig())
	e.RegisterObject(5)
	e.RegisterObject(5)
	e.RegisterContainer(6)
	e.RegisterContainer(6)
	if len(e.Objects()) != 1 || len(e.Containers()) != 1 {
		t.Fatalf("objects=%v containers=%v", e.Objects(), e.Containers())
	}
}

// TestConvergenceMonotone: EM must converge (assignments stable) within the
// iteration cap for random inputs, per Theorem 1.
func TestConvergenceProperty(t *testing.T) {
	lik := testLik(t)
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 99))
		cfg := DefaultConfig()
		cfg.MaxIters = 20
		e := New(lik, cfg)
		e.RegisterContainer(50)
		e.RegisterContainer(51)
		for o := model.TagID(0); o < 4; o++ {
			e.RegisterObject(o)
		}
		synthesize(t, e, rng, lik, 50, 2, 100)
		synthesize(t, e, rng, lik, 51, 3, 100)
		for o := model.TagID(0); o < 2; o++ {
			synthesize(t, e, rng, lik, o, 2, 100)
		}
		for o := model.TagID(2); o < 4; o++ {
			synthesize(t, e, rng, lik, o, 3, 100)
		}
		res := e.Run(99)
		// Converged before the cap: final iteration made no changes.
		return res.Iterations < cfg.MaxIters
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestTagRecSizeClass keeps the per-tag record inside the 512-byte
// allocation class: one field more and every registered tag at every site
// costs a 576-byte slot (measured when the posterior gained its evidence
// cells: +1.7 % B/op on BenchmarkRecovery, every tag re-registered on each
// restart).
func TestTagRecSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(tagRec{}); size > 512 {
		t.Fatalf("tagRec is %d bytes; pack it back under 512 or move cold state out", size)
	}
}

// TestRegisterMatchesOneAtATime pins Register against the one-tag calls it
// generalises: the same records, the same sorted object and container
// lists, and the same far-id filing (setTag's bound grows with the
// registered count, so order matters), with every new record of a batch
// in one slab, and no allocation at all for tags already registered —
// ImportState re-declares every object's candidate containers.
func TestRegisterMatchesOneAtATime(t *testing.T) {
	var decls []TagDecl
	for i := 0; i < 3000; i++ {
		decls = append(decls, TagDecl{ID: model.TagID((i * 7919) % 5000), Container: i%9 == 0})
	}
	decls = append(decls, TagDecl{ID: 1 << 20}, TagDecl{ID: -3, Container: true}, decls[5], TagDecl{ID: 4999})
	batch, single := New(testLik(t), DefaultConfig()), New(testLik(t), DefaultConfig())
	batch.Register(decls)
	for _, d := range decls {
		if d.Container {
			single.RegisterContainer(d.ID)
		} else {
			single.RegisterObject(d.ID)
		}
	}
	if !slices.Equal(batch.Objects(), single.Objects()) || !slices.Equal(batch.Containers(), single.Containers()) {
		t.Fatalf("batch registered %d objects, %d containers; one at a time %d, %d",
			len(batch.Objects()), len(batch.Containers()), len(single.Objects()), len(single.Containers()))
	}
	if len(batch.tags) != len(single.tags) || len(batch.farTags) != len(single.farTags) || len(batch.farTags) == 0 {
		t.Errorf("dense table %d / %d slots, far records %d / %d", len(batch.tags), len(single.tags), len(batch.farTags), len(single.farTags))
	}
	first := batch.tag(decls[0].ID)
	for _, d := range decls {
		got, want := batch.tag(d.ID), single.tag(d.ID)
		if got == nil || got.id != want.id || got.isContainer != want.isContainer || got.container != -1 || got.addFloor != epochMax {
			t.Fatalf("tag %d: batch record %+v", d.ID, got)
		}
		if off := uintptr(unsafe.Pointer(got)) - uintptr(unsafe.Pointer(first)); off%unsafe.Sizeof(tagRec{}) != 0 ||
			off >= uintptr(len(decls))*unsafe.Sizeof(tagRec{}) {
			t.Fatalf("tag %d's record is not in the batch's slab", d.ID)
		}
	}
	if n := testing.AllocsPerRun(100, func() {
		batch.Register(decls)
		batch.RegisterContainer(decls[0].ID)
	}); n != 0 {
		t.Errorf("re-declaring registered tags allocates %.0f times", n)
	}
}

func TestInsertSorted(t *testing.T) {
	var s []model.TagID
	for _, id := range []model.TagID{5, 1, 9, 5, 3} {
		s = insertSorted(s, id)
	}
	want := []model.TagID{1, 3, 5, 9}
	if len(s) != len(want) {
		t.Fatalf("s = %v", s)
	}
	for i := range want {
		if s[i] != want[i] {
			t.Fatalf("s = %v, want %v", s, want)
		}
	}
}

func TestNormalizeLog(t *testing.T) {
	lq := []float64{-1000, -1001, -999}
	q := make([]float64, 3)
	normalizeLog(lq, q)
	sum := 0.0
	for _, v := range q {
		if v < 0 || v > 1 || math.IsNaN(v) {
			t.Fatalf("q = %v", q)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("sum = %v", sum)
	}
	if !(q[2] > q[0] && q[0] > q[1]) {
		t.Fatalf("ordering wrong: %v", q)
	}
}

// TestPosteriorNormalizedProperty: posteriors computed by the E-step are
// probability distributions.
func TestPosteriorNormalizedProperty(t *testing.T) {
	lik := testLik(t)
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 7))
		e := New(lik, DefaultConfig())
		e.RegisterContainer(10)
		e.RegisterObject(1)
		synthesize(t, e, rng, lik, 10, 2, 50)
		synthesize(t, e, rng, lik, 1, 2, 50)
		e.Run(49)
		rec := e.tags[model.TagID(10)]
		for i := range rec.post.epochs {
			sum := 0.0
			for _, v := range rec.post.row(i) {
				if v < -1e-12 || math.IsNaN(v) {
					return false
				}
				sum += v
			}
			if math.Abs(sum-1) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestTruncationStrategies(t *testing.T) {
	lik := testLik(t)
	rng := rand.New(rand.NewPCG(3, 4))

	mk := func(cfg Config) *Engine {
		e := New(lik, cfg)
		e.RegisterContainer(10)
		e.RegisterObject(1)
		synthesize(t, e, rng, lik, 10, 2, 2000)
		synthesize(t, e, rng, lik, 1, 2, 2000)
		e.Run(1999)
		return e
	}

	cfgAll := DefaultConfig()
	cfgAll.Truncation = TruncateNone
	eAll := mk(cfgAll)
	if got := len(eAll.tags[model.TagID(1)].series); got == 0 {
		t.Fatal("all-history engine dropped readings")
	}

	cfgWin := DefaultConfig()
	cfgWin.Truncation = TruncateWindow
	cfgWin.FixedWindow = 100
	eWin := mk(cfgWin)
	for _, rd := range eWin.tags[model.TagID(1)].series {
		if rd.T < 1999-100 {
			t.Fatalf("window engine kept reading at %d", rd.T)
		}
	}

	cfgCR := DefaultConfig()
	cfgCR.RecentHistory = 200
	eCR := mk(cfgCR)
	objSeries := eCR.tags[model.TagID(1)].series
	crFrom, crTo := eCR.CriticalRegion(1)
	for _, rd := range objSeries {
		inRecent := rd.T >= 1999-200
		inCR := rd.T >= crFrom && rd.T < crTo
		if !inRecent && !inCR {
			t.Fatalf("CR engine kept reading at %d outside CR [%d,%d) and recent history",
				rd.T, crFrom, crTo)
		}
	}
}

func TestLocationFallbackOwnReadings(t *testing.T) {
	lik := testLik(t)
	e := New(lik, DefaultConfig())
	e.RegisterObject(1)
	// No container: object read once by reader 1.
	if err := e.Observe(10, 1, 1); err != nil {
		t.Fatal(err)
	}
	e.Run(20)
	if loc := e.LocationAt(1, 20); loc != 1 {
		t.Errorf("fallback location = %d, want 1", loc)
	}
	if loc := e.LocationAt(1, 5); loc != model.NoLoc {
		t.Errorf("location before first reading = %d", loc)
	}
}

func TestSnapshot(t *testing.T) {
	lik := testLik(t)
	e := New(lik, DefaultConfig())
	rng := rand.New(rand.NewPCG(8, 8))
	e.RegisterContainer(10)
	e.RegisterObject(1)
	e.RegisterObject(2) // never read: absent from snapshots
	synthesize(t, e, rng, lik, 10, 2, 100)
	synthesize(t, e, rng, lik, 1, 2, 100)
	e.Run(99)
	evs := e.Snapshot(99)
	if len(evs) != 1 {
		t.Fatalf("snapshot = %+v", evs)
	}
	if evs[0].Tag != 1 || evs[0].Container != 10 || evs[0].Loc != 2 {
		t.Fatalf("event = %+v", evs[0])
	}
}
