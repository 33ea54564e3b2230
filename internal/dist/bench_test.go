package dist

import (
	"cmp"
	"fmt"
	"slices"
	"testing"

	"rfidtrack/internal/model"
	"rfidtrack/internal/rfinfer"
	"rfidtrack/internal/sim"
)

// benchCluster builds a two-warehouse world and replays it once so both
// engines hold realistic inference state, then returns the cluster and a
// real cross-site departure reversed, to migrate repeatedly: after the
// replay the object's state lives at the site it went to, since its source
// forgot it when it left.
func benchCluster(b *testing.B, st Strategy) (*Cluster, Departure) {
	b.Helper()
	cfg := sim.DefaultConfig()
	cfg.Warehouses = 2
	cfg.PathLength = 2
	cfg.Epochs = 900
	cfg.ItemsPerCase = 5
	w, err := sim.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	c := NewCluster(w, st, rfinfer.DefaultConfig())
	if _, err := c.Replay(300); err != nil {
		b.Fatal(err)
	}
	for _, d := range c.deps {
		if d.From != d.To {
			return c, Departure{Object: d.Object, From: d.To, To: d.From, At: d.At}
		}
	}
	b.Fatal("no cross-site departure in bench world")
	return nil, Departure{}
}

// benchMigration measures the full migration round trip — export, encode
// to wire bytes, decode, import — for one strategy.
func benchMigration(b *testing.B, st Strategy) {
	c, d := benchCluster(b, st)
	payload, _, _, err := c.encodePayload(d)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		payload, _, _, err := c.encodePayload(d)
		if err != nil {
			b.Fatal(err)
		}
		if err := c.applyPayload(d, payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFeedAdvance measures one Δ-interval feed checkpoint driven the
// way the sharded server drives it: per-site interval batches handed to
// AdvanceWith (sorted in place, ingested, inferred, scored), cycling the
// world with a stream-time offset so truncation keeps the steady state
// flat. The per-site (epoch, tag) ordering runs through sortReadings —
// the closure-free sort whose allocation behavior TestSortReadingsAllocs
// pins at zero.
func BenchmarkFeedAdvance(b *testing.B) {
	cfg := sim.DefaultConfig()
	cfg.Warehouses = 2
	cfg.PathLength = 2
	cfg.Epochs = 900
	cfg.ItemsPerCase = 5
	benchFeedAdvance(b, cfg, 0, MigrateNone)
}

// BenchmarkFeedAdvanceSkewed is BenchmarkFeedAdvance on the paper_dense
// world shape (bench/): four sites, the entry warehouse carrying about 60 %
// of the readings. Site-level parallelism alone cannot finish a checkpoint
// faster than that one site's share of the work, 0.6 × the workers=1 time;
// rows below that line are the shared pool's workers helping inside the
// hot site's inference.
func BenchmarkFeedAdvanceSkewed(b *testing.B) {
	cfg := paperDenseConfig()
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			benchFeedAdvance(b, cfg, workers, MigrateNone)
		})
	}
}

// BenchmarkReplayMigrate is BenchmarkFeedAdvanceSkewed/workers=2 with the
// world's departures delivered: each cycle through the paper_dense world
// migrates its 4 699 items under collapsed weights, so sites are migration
// sources and destinations — the source forgets what it exported, the
// destination imports it — which the MigrateNone rows above never are.
func BenchmarkReplayMigrate(b *testing.B) {
	b.Run("workers=2", func(b *testing.B) {
		benchFeedAdvance(b, paperDenseConfig(), 2, MigrateWeights)
	})
}

// paperDenseConfig is the world of bench/'s paper_dense workload.
func paperDenseConfig() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Warehouses = 4
	cfg.PathLength = 2
	cfg.ItemsPerCase = 20
	cfg.Epochs = 3600
	cfg.AnomalyEvery = 120
	return cfg
}

// TestPaperDenseSearchCounters pins what the critical-region search does on
// the paper_dense world replayed at Δ=300 with collapsed-weight migration,
// summed over sites and checkpoints: the RunStats counters an operator reads
// in /stats, and the numbers PERFORMANCE.md and ROADMAP size the search with.
// They are exact counts of a deterministic replay, so any change to what is
// searched, where a search stops or which epochs it visits moves them. The
// M-step's evidence columns kept and rescored are pinned alongside: they
// move if the per-candidate evidence memo keeps or drops anything new. So
// is the E-step's work — posteriors computed and carried, rows reused and
// computed, groups dirty — which moves if the posterior memo keeps or
// recomputes anything it did not before. The engines' history storage must hold at most 1.5 × what it uses after every
// checkpoint.
func TestPaperDenseSearchCounters(t *testing.T) {
	if testing.Short() {
		t.Skip("replays the full paper_dense world")
	}
	w, err := sim.Generate(paperDenseConfig())
	if err != nil {
		t.Fatal(err)
	}
	const interval = 300
	c := NewCluster(w, MigrateWeights, rfinfer.DefaultConfig())
	f, err := c.OpenFeed(interval)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range c.deps {
		if err := f.Depart(d); err != nil {
			t.Fatal(err)
		}
	}
	batches := worldIntervals(w, interval)
	due := make([][]Reading, len(batches))
	var searches, windows, rows, noHit, segReused, segComputed int
	var postComputed, postSkipped, rowsReused, rowsComputed, groupsDirty int
	for k := range batches[0] {
		for s := range due {
			due[s] = batches[s][k]
		}
		if err := f.AdvanceWith(due); err != nil {
			t.Fatal(err)
		}
		held, used := 0, 0
		for _, e := range c.Engines {
			st := e.Stats()
			searches += st.CRSearches
			windows += st.CRWindowsScanned
			rows += st.CRRowsBuilt
			noHit += st.CRSearchesNoHit
			segReused += st.EvidenceSegmentsReused
			segComputed += st.EvidenceSegmentsComputed
			postComputed += st.PosteriorsComputed
			postSkipped += st.PosteriorsSkipped
			rowsReused += st.RowsReused
			rowsComputed += st.RowsComputed
			groupsDirty += st.GroupsDirty
			held += st.StorageBytes
			used += st.StorageUsedBytes
		}
		// Storage follows the retained history: objects that departed or
		// fell silent give back what truncation freed (held ≈ 3.3 × used at
		// the last checkpoint when tables kept their peak size).
		if used == 0 || 2*held > 3*used {
			t.Fatalf("checkpoint %d: history storage holds %d bytes for %d in use, want at most 1.5 ×",
				k+1, held, used)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if searches != 37764 || windows != 7038910 || rows != 8049729 || noHit != 13279 {
		t.Fatalf("searches %d, windows %d, rows %d, without a hit %d; want 37764, 7038910, 8049729, 13279",
			searches, windows, rows, noHit)
	}
	if segReused != 201533 || segComputed != 470656 {
		t.Fatalf("evidence columns kept %d, rescored %d; want 201533, 470656", segReused, segComputed)
	}
	if postComputed != 2214 || postSkipped != 11558 || rowsReused != 76288 ||
		rowsComputed != 184356 || groupsDirty != 1667 {
		t.Fatalf("posteriors computed %d, carried %d, rows reused %d, rows computed %d, groups dirty %d; "+
			"want 2214, 11558, 76288, 184356, 1667",
			postComputed, postSkipped, rowsReused, rowsComputed, groupsDirty)
	}
}

func benchFeedAdvance(b *testing.B, cfg sim.Config, workers int, st Strategy) {
	w, err := sim.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	const interval = model.Epoch(300)
	numCkpts := int(w.Epochs / interval)

	// Per-site, per-interval base batches, copied into reused buffers each
	// iteration (AdvanceWith sorts its input in place). Each batch is put in
	// (tag, epoch) order, the order a per-tag flatten of the trace yields,
	// so every iteration pays the sort a shard's arrival-order bucket costs.
	base := worldIntervals(w, interval)
	maxLen := 0
	for _, site := range base {
		for _, bk := range site {
			slices.SortFunc(bk, func(a, b Reading) int {
				if c := cmp.Compare(a.ID, b.ID); c != 0 {
					return c
				}
				return cmp.Compare(a.T, b.T)
			})
			maxLen = max(maxLen, len(bk))
		}
	}
	due := make([][]Reading, len(w.Sites))
	bufs := make([][]Reading, len(w.Sites))
	for s := range bufs {
		bufs[s] = make([]Reading, maxLen)
	}

	c := NewCluster(w, st, rfinfer.DefaultConfig())
	c.Workers = workers
	f, err := c.OpenFeed(interval)
	if err != nil {
		b.Fatal(err)
	}
	var offset model.Epoch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % numCkpts
		if k == 0 && i > 0 {
			offset += w.Epochs
		}
		if k == 0 && st != MigrateNone {
			for _, d := range c.deps {
				d.At += offset
				if err := f.Depart(d); err != nil {
					b.Fatal(err)
				}
			}
		}
		for s := range due {
			src := base[s][k]
			d := bufs[s][:len(src)]
			copy(d, src)
			for j := range d {
				d[j].T += offset
			}
			due[s] = d
		}
		if err := f.AdvanceWith(due); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(f.Stats().Observed)/b.Elapsed().Seconds(), "readings/s")
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
}

// TestSortReadingsAllocs pins the checkpoint's sort fix: ordering one
// interval bucket by (epoch, tag) must not allocate. The closure-based
// sort.Slice this replaced allocated its comparator and interface header
// on every call — once per site per checkpoint, forever.
func TestSortReadingsAllocs(t *testing.T) {
	bucket := make([]Reading, 4096)
	for i := range bucket {
		bucket[i] = Reading{T: model.Epoch((i * 7919) % 300), ID: model.TagID(i % 97), Mask: 1}
	}
	allocs := testing.AllocsPerRun(10, func() {
		sortReadings(bucket)
	})
	if allocs != 0 {
		t.Fatalf("sortReadings allocated %.1f times per call, want 0", allocs)
	}
}

// BenchmarkMigrationCollapsed is the collapsed-weights strategy: the
// paper's headline few-dozen-byte transfers.
func BenchmarkMigrationCollapsed(b *testing.B) { benchMigration(b, MigrateWeights) }

// BenchmarkMigrationCR is the critical-region strategy: weights plus the
// CR ∪ recent-history readings of the object and its candidates.
func BenchmarkMigrationCR(b *testing.B) { benchMigration(b, MigrateReadings) }

// BenchmarkMigrationFull ships every retained reading.
func BenchmarkMigrationFull(b *testing.B) { benchMigration(b, MigrateFull) }
