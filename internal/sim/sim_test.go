package sim

import (
	"reflect"
	"testing"

	"rfidtrack/internal/model"
	"rfidtrack/internal/trace"
)

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Epochs = 900
	cfg.ItemsPerCase = 5
	return cfg
}

func TestGenerateValidates(t *testing.T) {
	w, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Sites) != 1 {
		t.Fatalf("sites = %d", len(w.Sites))
	}
	if err := w.Single().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	w1, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	w2, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	t1, t2 := w1.Single(), w2.Single()
	if len(t1.Tags) != len(t2.Tags) {
		t.Fatalf("tag counts differ: %d vs %d", len(t1.Tags), len(t2.Tags))
	}
	if t1.NumReadings() != t2.NumReadings() {
		t.Fatalf("reading counts differ: %d vs %d", t1.NumReadings(), t2.NumReadings())
	}
	for i := range t1.Tags {
		a, b := t1.Tags[i].Readings, t2.Tags[i].Readings
		if len(a) != len(b) {
			t.Fatalf("tag %d series lengths differ", i)
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("tag %d reading %d differs", i, j)
			}
		}
	}
}

// TestLayoutIsGenerateWithoutReadings pins what Layout promises: drawing
// the readings is the last use of the generator's random stream, so the
// world without them — tags, rates, schedule, visits, location and
// containment truth, anomalies — is Generate's, exactly.
func TestLayoutIsGenerateWithoutReadings(t *testing.T) {
	multi := smallConfig()
	multi.Warehouses, multi.PathLength, multi.Epochs = 3, 2, 1800
	anomalous := multi
	anomalous.AnomalyEvery, anomalous.AnomalyRemoveFrac = 60, 0.25
	anomalous.RRUniform, anomalous.ORUniform, anomalous.Seed = true, true, 7
	for name, cfg := range map[string]Config{"single": smallConfig(), "multi": multi, "anomalous": anomalous} {
		full, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		layout, err := Layout(cfg)
		if err != nil {
			t.Fatal(err)
		}
		readings := 0
		for _, tr := range full.Sites {
			readings += tr.NumReadings()
			for i := range tr.Tags {
				tr.Tags[i].Readings = nil
			}
		}
		if readings == 0 || (cfg.AnomalyEvery > 0 && len(full.Changes) == 0) {
			t.Fatalf("%s: world has %d readings and %d anomalies: the comparison would be vacuous", name, readings, len(full.Changes))
		}
		if !reflect.DeepEqual(layout, full) {
			t.Errorf("%s: Layout differs from Generate with the readings cleared", name)
		}
	}
	if _, err := Layout(Config{}); err == nil {
		t.Error("Layout accepted an invalid config")
	}
}

// TestLayoutAllocs pins what a layout allocates on a small anomalous
// two-site world: besides what the World keeps — its tags' names and truth
// timelines, the visit lists — one timeline per item sized once, one table
// of assignment histories, no reading buffers and no sort swappers. A start
// that builds a layout runs with the collector held, so whatever it
// allocates stays resident until the daemon is ready.
func TestLayoutAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under the race detector")
	}
	cfg := smallConfig()
	cfg.Warehouses, cfg.PathLength, cfg.Epochs, cfg.AnomalyEvery = 2, 2, 1200, 60
	if n := testing.AllocsPerRun(5, func() {
		if _, err := Layout(cfg); err != nil {
			t.Fatal(err)
		}
	}); n > layoutAllocs {
		t.Errorf("Layout allocates %.0f times, want at most %d", n, layoutAllocs)
	}
}

// layoutAllocs is TestLayoutAllocs' bound, the count Layout makes.
const layoutAllocs = 5815

// raceEnabled is set by race_test.go under the race detector.
var raceEnabled bool

func TestGenerateSeedSensitivity(t *testing.T) {
	cfg := smallConfig()
	w1, _ := Generate(cfg)
	cfg.Seed = 2
	w2, _ := Generate(cfg)
	if w1.Single().NumReadings() == w2.Single().NumReadings() {
		t.Log("same reading count for different seeds (possible but unlikely)")
	}
}

// TestReadingsRespectSchedule: a reading can only exist at an epoch where
// its reader interrogates.
func TestReadingsRespectSchedule(t *testing.T) {
	w, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	tr := w.Single()
	for i := range tr.Tags {
		for _, rd := range tr.Tags[i].Readings {
			for m := rd.Mask; m != 0; m &= m - 1 {
				if !tr.Sched.Scans(m.First(), rd.T) {
					t.Fatalf("tag %d read by %d at epoch %d outside its schedule",
						i, m.First(), rd.T)
				}
			}
		}
	}
}

// TestReadingsNearTruth: every reading must come from the tag's own reader
// or an adjacent shelf reader.
func TestReadingsNearTruth(t *testing.T) {
	w, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	tr := w.Single()
	shelves := w.Cfg.Shelves
	isShelf := func(l model.Loc) bool { return l >= 2 && int(l) < 2+shelves }
	for i := range tr.Tags {
		tg := &tr.Tags[i]
		for _, rd := range tg.Readings {
			truth := tg.TrueLocAt(rd.T)
			if truth == model.NoLoc {
				t.Fatalf("tag %d read at %d while absent", i, rd.T)
			}
			for m := rd.Mask; m != 0; m &= m - 1 {
				r := m.First()
				if r == truth {
					continue
				}
				if isShelf(r) && isShelf(truth) && (r-truth == 1 || truth-r == 1) {
					continue
				}
				t.Fatalf("tag %d at %d read by non-adjacent reader %d (epoch %d)", i, truth, r, rd.T)
			}
		}
	}
}

// TestItemFollowsCase: with no anomalies an item's location always equals
// its case's location while both are present.
func TestItemFollowsCase(t *testing.T) {
	w, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	tr := w.Single()
	for i := range tr.Tags {
		tg := &tr.Tags[i]
		if tg.Kind != model.KindItem {
			continue
		}
		for _, span := range tg.TrueLoc {
			for _, probe := range []model.Epoch{span.From, (span.From + span.To) / 2, span.To - 1} {
				cid := tg.TrueContAt(probe)
				if cid < 0 {
					t.Fatalf("item %d present without container at %d", i, probe)
				}
				if cl := tr.Tags[cid].TrueLocAt(probe); cl != span.Loc {
					t.Fatalf("item %d at %d but case %d at %d (epoch %d)", i, span.Loc, cid, cl, probe)
				}
			}
		}
	}
}

func TestAnomaliesRecorded(t *testing.T) {
	cfg := smallConfig()
	cfg.AnomalyEvery = 60
	w, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Changes) == 0 {
		t.Fatal("no anomalies recorded")
	}
	tr := w.Single()
	for _, ch := range w.Changes {
		tg := &tr.Tags[ch.Object]
		if tg.Kind != model.KindItem {
			t.Fatalf("anomaly moved non-item %d", ch.Object)
		}
		if got := tg.TrueContAt(ch.T); got != ch.To {
			t.Fatalf("change at %d: truth says container %d, change log says %d", ch.T, got, ch.To)
		}
		if ch.T > 0 {
			before := tg.TrueContAt(ch.T - 1)
			if before == ch.To {
				t.Fatalf("change at %d is a no-op (container %d)", ch.T, ch.To)
			}
		}
	}
}

func TestAnomalyRemoveEvery(t *testing.T) {
	cfg := smallConfig()
	cfg.AnomalyEvery = 60
	cfg.AnomalyRemoveEvery = 3
	w, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	removed := 0
	for _, ch := range w.Changes {
		if ch.To < 0 {
			removed++
		}
	}
	want := len(w.Changes) / 3
	if removed != want {
		t.Fatalf("removed %d of %d anomalies, want %d", removed, len(w.Changes), want)
	}
}

func TestMultiSiteWorld(t *testing.T) {
	cfg := smallConfig()
	cfg.Warehouses = 3
	cfg.PathLength = 2
	cfg.Epochs = 2000
	w, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Sites) != 3 {
		t.Fatalf("sites = %d", len(w.Sites))
	}
	for s, tr := range w.Sites {
		if err := tr.Validate(); err != nil {
			t.Fatalf("site %d: %v", s, err)
		}
	}
	// Some item must visit two sites, with ordered non-overlapping visits.
	multi := 0
	for id, visits := range w.Visits {
		if w.Sites[0].Tags[id].Kind != model.KindItem {
			continue
		}
		if len(visits) > 1 {
			multi++
		}
		for i := 1; i < len(visits); i++ {
			if visits[i].Arrive < visits[i-1].Depart {
				t.Fatalf("tag %d visits overlap: %+v", id, visits)
			}
			if visits[i].Site == visits[i-1].Site {
				t.Fatalf("tag %d consecutive visits to same site", id)
			}
		}
	}
	if multi == 0 {
		t.Fatal("no item visited multiple sites")
	}
	// Downstream sites have no belt readings by default.
	for s := 1; s < 3; s++ {
		for i := range w.Sites[s].Tags {
			for _, rd := range w.Sites[s].Tags[i].Readings {
				if rd.Mask.Has(1) {
					t.Fatalf("site %d has belt reading for tag %d", s, i)
				}
			}
		}
	}
}

func TestMobileShelves(t *testing.T) {
	// The mobile deployment only reduces readings when the aisle is wide
	// (the paper sweeps 90 shelves per aisle); use 30 here.
	cfg := smallConfig()
	cfg.Shelves = 30
	cfg.MobileShelves = true
	w, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := w.Single()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	staticCfg := smallConfig()
	staticCfg.Shelves = 30
	static, _ := Generate(staticCfg)
	if tr.NumReadings() >= static.Single().NumReadings() {
		t.Errorf("mobile readings (%d) not sparser than static (%d)",
			tr.NumReadings(), static.Single().NumReadings())
	}
	for _, rdr := range tr.Readers {
		if rdr.Kind == trace.ReaderShelf {
			t.Error("mobile config produced static shelf readers")
		}
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Warehouses = 0 },
		func(c *Config) { c.PathLength = 5; c.Warehouses = 2 },
		func(c *Config) { c.Epochs = 0 },
		func(c *Config) { c.RR = 1.5 },
		func(c *Config) { c.OR = -0.1 },
		func(c *Config) { c.ItemsPerCase = 0 },
		func(c *Config) { c.Epochs = 100; c.ShelfDwell = 600 },
		func(c *Config) { c.AnomalyRemoveFrac = 2 },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestLabTraces(t *testing.T) {
	params := LabTraces()
	if len(params) != 8 {
		t.Fatalf("lab traces = %d, want 8", len(params))
	}
	for _, p := range []LabTraceParams{params[0], params[4]} {
		tr, w, err := LabTrace(p, 1)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if got := len(tr.Cases()); got != 20 {
			t.Errorf("%s: cases = %d, want 20", p.Name, got)
		}
		if got := len(tr.Items()); got != 100 {
			t.Errorf("%s: items = %d, want 100", p.Name, got)
		}
		if got := len(tr.Readers); got != 7 {
			t.Errorf("%s: readers = %d, want 7", p.Name, got)
		}
		if p.Changes {
			if len(w.Changes) != 4 {
				t.Errorf("%s: changes = %d, want 4", p.Name, len(w.Changes))
			}
			removed := 0
			for _, ch := range w.Changes {
				if ch.To < 0 {
					removed++
				}
			}
			if removed != 1 {
				t.Errorf("%s: removals = %d, want 1", p.Name, removed)
			}
		} else if len(w.Changes) != 0 {
			t.Errorf("%s: unexpected changes", p.Name)
		}
	}
}

// TestVisitsMatchGroundTruth: every ground-truth location span of a tag at
// a site must fall inside one of the tag's recorded visits to that site.
func TestVisitsMatchGroundTruth(t *testing.T) {
	cfg := smallConfig()
	cfg.Warehouses = 2
	cfg.PathLength = 2
	cfg.Epochs = 1600
	w, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for s, tr := range w.Sites {
		for i := range tr.Tags {
			for _, span := range tr.Tags[i].TrueLoc {
				covered := false
				for _, v := range w.Visits[i] {
					if v.Site == s && v.Arrive <= span.From && span.To <= v.Depart {
						covered = true
						break
					}
				}
				if !covered {
					t.Fatalf("tag %d span [%d,%d) at site %d outside visits %+v",
						i, span.From, span.To, s, w.Visits[i])
				}
			}
		}
	}
}

// TestRouteCoverage: with PathLength == Warehouses every pallet visits
// every site exactly once.
func TestRouteCoverage(t *testing.T) {
	cfg := smallConfig()
	cfg.Warehouses = 3
	cfg.PathLength = 3
	cfg.Epochs = 3000
	w, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Pallet 0's cases must appear at all three sites.
	caseID := w.Sites[0].Cases()[0]
	seen := map[int]bool{}
	for _, v := range w.Visits[caseID] {
		seen[v.Site] = true
	}
	if len(seen) != 3 {
		t.Fatalf("case visited %d sites, want 3 (%+v)", len(seen), w.Visits[caseID])
	}
}
