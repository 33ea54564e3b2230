package dist

import (
	"cmp"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"rfidtrack/internal/metrics"
	"rfidtrack/internal/model"
	"rfidtrack/internal/query"
	"rfidtrack/internal/rfinfer"
	"rfidtrack/internal/sim"
	"rfidtrack/internal/trace"
	"rfidtrack/internal/workpool"
)

// Strategy selects what inference state travels with a departing object
// (Section 4.1).
type Strategy uint8

const (
	// MigrateNone ships nothing: each site infers from scratch.
	MigrateNone Strategy = iota
	// MigrateWeights ships the collapsed co-location weights only (the
	// paper's collapsed-state method, a few dozen bytes per object).
	MigrateWeights
	// MigrateReadings ships the collapsed weights plus the raw readings
	// inside the object's critical region and recent history (the CR
	// method), preserving revisability at the destination.
	MigrateReadings
	// MigrateFull ships the weights plus every retained reading of the
	// object and its candidate containers, approximating centralized
	// accuracy at centralized cost.
	MigrateFull
)

// String returns the strategy's short name.
func (s Strategy) String() string {
	switch s {
	case MigrateNone:
		return "none"
	case MigrateWeights:
		return "weights"
	case MigrateReadings:
		return "readings"
	case MigrateFull:
		return "full"
	default:
		return "strategy(?)"
	}
}

// Departure reports an object leaving one site for another.
type Departure struct {
	Object   model.TagID
	From, To int
	At       model.Epoch
}

// Hooks lets callers observe the replay. Both hooks fire on the goroutine
// driving the checkpoint, in a deterministic order: OnDepart in global
// departure order, OnCheckpoint in site order once every site's inference
// has run — so a hook may read any site's state.
type Hooks struct {
	// OnDepart fires when an object departs, before any engine runs at the
	// checkpoint that observes the departure (so migrated state can be
	// delivered ahead of the destination's checkpoint).
	OnDepart func(Departure)
	// OnCheckpoint fires after a site's inference run at each checkpoint.
	OnCheckpoint func(site int, eng *rfinfer.Engine, evalAt model.Epoch)
}

// Costs accumulates migration traffic.
type Costs struct {
	// Bytes is the total wire size of all migrated inference state.
	Bytes int
	// Messages is the number of point-to-point transfers.
	Messages int
}

// LinkCost is the migration traffic of one directed inter-site link.
type LinkCost struct {
	From, To int
	Costs
}

// Result summarizes one Replay.
type Result struct {
	// ContErr and LocErr accumulate containment / location error
	// observations across all sites and checkpoints.
	ContErr, LocErr metrics.Counts
	// Costs is the migration traffic of the configured strategy.
	Costs Costs
	// Links breaks Costs down per directed inter-site link, sorted by
	// (From, To). Only links that carried traffic appear.
	Links []LinkCost
	// QueryStateBytes is the wire size of migrated continuous-query pattern
	// state (zero unless a ClusterQuery is attached).
	QueryStateBytes int
	// CentralizedBytes is what the centralized baseline would ship: every
	// site's raw readings, gzip-compressed (Table 5 accounting).
	CentralizedBytes int
	// Runs counts inference checkpoints (per site).
	Runs int
}

// onsShards spreads the naming service over independent cache lines so
// concurrent Move/Lookup traffic from different sites does not contend.
const onsShards = 16

// ONS is the object naming service: the authoritative map from object to
// owning site (Section 4.2). Lookups route queries; Move transfers
// ownership when migration completes. The table is sharded and mutex-free:
// every entry is an atomic word, so sites update ownership concurrently
// without locking.
type ONS struct {
	shards [onsShards][]atomic.Int32
	n      int
}

// NewONS returns a naming service over n tags, all owned by site 0.
func NewONS(n int) *ONS {
	o := &ONS{n: n}
	for s := range o.shards {
		o.shards[s] = make([]atomic.Int32, (n-s+onsShards-1)/onsShards)
	}
	return o
}

// Lookup returns the owning site of a tag (0 if unknown).
func (o *ONS) Lookup(id model.TagID) int {
	if int(id) < 0 || int(id) >= o.n {
		return 0
	}
	return int(o.shards[int(id)%onsShards][int(id)/onsShards].Load())
}

// Move transfers ownership of a tag to a site.
func (o *ONS) Move(id model.TagID, site int) {
	if int(id) >= 0 && int(id) < o.n {
		o.shards[int(id)%onsShards][int(id)/onsShards].Store(int32(site))
	}
}

// SiteStats counts one site's work during a Replay, mirroring
// rfinfer.Engine.Stats() at the cluster level.
type SiteStats struct {
	// Epochs is the number of inference checkpoints the site completed.
	Epochs int
	// MigrationsIn/Out count state transfers received / sent by the site;
	// BytesIn/Out their total payload sizes (inference + query state).
	MigrationsIn, MigrationsOut int
	BytesIn, BytesOut           int
}

// ClusterStats reports the per-site runtime counters of the most recent
// Replay.
type ClusterStats struct {
	Sites []SiteStats
}

// Totals sums the per-site counters.
func (cs ClusterStats) Totals() SiteStats {
	var t SiteStats
	for _, s := range cs.Sites {
		t.Epochs += s.Epochs
		t.MigrationsIn += s.MigrationsIn
		t.MigrationsOut += s.MigrationsOut
		t.BytesIn += s.BytesIn
		t.BytesOut += s.BytesOut
	}
	return t
}

// ClusterQuery attaches one continuous query engine per site, fed from the
// site's inferred event stream after every checkpoint. Query pattern state
// migrates with departing objects inside the same migration payload as the
// inference state (Appendix B). All callbacks are invoked only from the
// owning site's goroutine, so they may keep per-site state without locking.
type ClusterQuery struct {
	// New builds site s's query engine before replay starts.
	New func(site int) *query.Engine
	// Feed pushes one checkpoint's site-local tuples (sensor readings and
	// inferred object events) into the site's query engine. owns reports
	// whether this site currently owns a tag per the migration history —
	// the deterministic, site-local equivalent of an ONS lookup.
	Feed func(site int, q *query.Engine, eng *rfinfer.Engine, evalAt model.Epoch, owns func(model.TagID) bool)
}

// Cluster is a multi-site deployment of inference engines over a simulated
// world.
type Cluster struct {
	World    *sim.World
	Strategy Strategy
	// Engines holds one inference engine per site.
	Engines []*rfinfer.Engine
	// Hooks observes departures and checkpoints.
	Hooks Hooks
	// Workers is the checkpoint's total CPU budget: the size of the one
	// worker pool (internal/workpool) that a Replay or an open Feed runs
	// its site loops on and hands to every site engine for its phases, so
	// workers left idle by quiet sites help inside the busy site's
	// inference — and a one-site deployment still uses every core. 0 uses
	// GOMAXPROCS; 1 runs everything on the calling goroutine. The Result
	// is bit-identical at every setting.
	Workers int
	// Query optionally attaches per-site continuous queries.
	Query *ClusterQuery
	// Baseline, when set, supplies Result.CentralizedBytes in place of
	// compressing the World's readings — for a world built by sim.Layout,
	// which has none. It is called at most once, on the first Result.
	Baseline func() int

	cfg   rfinfer.Config
	ons   *ONS
	deps  []Departure // all item departures, time-ordered
	home  []int       // initial owning site per tag
	siteQ []*query.Engine
	stats ClusterStats

	baseOnce sync.Once // guards baseline, fixed on the first Result
	baseline int
}

// NewCluster builds a deployment over a simulated world: one engine per
// site, every case registered as a container and every item as an object
// (pallet-level containment is the hierarchical extension of Appendix A.4).
func NewCluster(w *sim.World, strategy Strategy, cfg rfinfer.Config) *Cluster {
	c := &Cluster{
		World:    w,
		Strategy: strategy,
		cfg:      cfg,
		ons:      NewONS(w.NumTags()),
		home:     make([]int, w.NumTags()),
	}
	c.Engines = make([]*rfinfer.Engine, len(w.Sites))
	// The sites' engines share nothing: build them at once, one site per
	// task, on a pool of up to GOMAXPROCS workers.
	p := workpool.New(min(len(w.Sites), runtime.GOMAXPROCS(0)))
	p.For(len(w.Sites), 1, func(lo, hi int) {
		for s := lo; s < hi; s++ {
			c.Engines[s] = newSiteEngine(w.Sites[s], cfg)
		}
	})
	p.Close()
	for id, visits := range w.Visits {
		if len(visits) > 0 {
			c.home[id] = visits[0].Site
			c.ons.Move(model.TagID(id), visits[0].Site)
		}
	}
	c.deps = WorldDepartures(w)
	return c
}

// newSiteEngine builds one site's engine with every case registered as a
// container and every item as an object, in tag order.
func newSiteEngine(tr *trace.Trace, cfg rfinfer.Config) *rfinfer.Engine {
	eng := rfinfer.New(tr.Likelihood(), cfg)
	tags := make([]rfinfer.TagDecl, 0, len(tr.Tags))
	for i := range tr.Tags {
		switch tr.Tags[i].Kind {
		case model.KindCase:
			tags = append(tags, rfinfer.TagDecl{ID: tr.Tags[i].ID, Container: true})
		case model.KindItem:
			tags = append(tags, rfinfer.TagDecl{ID: tr.Tags[i].ID})
		}
	}
	eng.Register(tags)
	return eng
}

// WorldDepartures derives a world's ground-truth item departures from its
// visit history, in global (time, object) order. It is the departure
// stream of a replay; the rfidsim load generator uses it to stream the
// same events to a live daemon without building a Cluster.
func WorldDepartures(w *sim.World) []Departure {
	var deps []Departure
	tags := w.Sites[0].Tags
	for id, visits := range w.Visits {
		if tags[id].Kind != model.KindItem {
			continue
		}
		for i := 0; i+1 < len(visits); i++ {
			if visits[i].Site == visits[i+1].Site {
				continue
			}
			deps = append(deps, Departure{
				Object: model.TagID(id),
				From:   visits[i].Site,
				To:     visits[i+1].Site,
				At:     visits[i].Depart,
			})
		}
	}
	slices.SortFunc(deps, func(a, b Departure) int {
		if c := cmp.Compare(a.At, b.At); c != 0 {
			return c
		}
		return cmp.Compare(a.Object, b.Object)
	})
	return deps
}

// ONSLookup returns the site currently owning a tag.
func (c *Cluster) ONSLookup(id model.TagID) int { return c.ons.Lookup(id) }

// Departures returns the world's ground-truth item departures in global
// (time, object) order — the event stream an online ingestion front end
// must deliver (via Feed.Depart) alongside the readings to reproduce a
// Replay of the same world.
func (c *Cluster) Departures() []Departure {
	return append([]Departure(nil), c.deps...)
}

// SiteQuery returns site s's continuous query engine after a Replay with an
// attached ClusterQuery (nil otherwise).
func (c *Cluster) SiteQuery(s int) *query.Engine {
	if s < 0 || s >= len(c.siteQ) {
		return nil
	}
	return c.siteQ[s]
}

// Stats returns the per-site runtime counters of the most recent Replay.
func (c *Cluster) Stats() ClusterStats {
	out := ClusterStats{Sites: make([]SiteStats, len(c.stats.Sites))}
	copy(out.Sites, c.stats.Sites)
	return out
}

// startPool starts a pool of the given budget (0 means GOMAXPROCS) and
// hands it to every site engine; stopPool takes it back and closes it.
// Between the two, the pool's owner — a Feed or a Replay — and the engines
// it drives share one set of workers.
func (c *Cluster) startPool(workers int) *workpool.Pool {
	p := workpool.New(workers)
	for _, eng := range c.Engines {
		eng.UsePool(p)
	}
	return p
}

func (c *Cluster) stopPool(p *workpool.Pool) {
	for _, eng := range c.Engines {
		eng.UsePool(nil)
	}
	p.Close()
}

// Replay drives the whole world through checkpointed inference every
// interval epochs, migrating state at departures, and scores every site
// against its ground truth: the whole world streamed through a Feed on a
// pool of Workers. The Result is bit-identical at every pool size.
func (c *Cluster) Replay(interval model.Epoch) (Result, error) {
	return c.replay(interval, c.Workers)
}

// ReplaySequential is the single-goroutine reference replay: Replay at a
// pool of one, where every site's phases run in site order on the calling
// goroutine. It defines the semantics every concurrent configuration —
// pools, peers, the daemon — must reproduce bit-for-bit and is what the
// determinism tests compare against.
func (c *Cluster) ReplaySequential(interval model.Epoch) (Result, error) {
	return c.replay(interval, 1)
}

// initQueries builds the per-site query engines and ownership sets when a
// ClusterQuery is attached.
func (c *Cluster) initQueries() []map[model.TagID]bool {
	if c.Query == nil {
		c.siteQ = nil
		return nil
	}
	c.siteQ = make([]*query.Engine, len(c.World.Sites))
	for s := range c.siteQ {
		c.siteQ[s] = c.Query.New(s)
	}
	owned := make([]map[model.TagID]bool, len(c.World.Sites))
	for s := range owned {
		owned[s] = make(map[model.TagID]bool)
	}
	tags := c.World.Sites[0].Tags
	for id := range c.home {
		if tags[id].Kind == model.KindItem {
			owned[c.home[id]][model.TagID(id)] = true
		}
	}
	return owned
}

// CentralizedBaseline computes the Table 5 centralized baseline of a world,
// what Result.CentralizedBytes reports: every site's raw readings,
// gzip-compressed. It costs about as much as generating the world did.
func CentralizedBaseline(w *sim.World) int {
	total := 0
	for _, tr := range w.Sites {
		var tags []model.TagID
		for i := range tr.Tags {
			if k := tr.Tags[i].Kind; k == model.KindCase || k == model.KindItem {
				tags = append(tags, tr.Tags[i].ID)
			}
		}
		total += trace.GzipSize(tr, tags)
	}
	return total
}

// centralizedBytes is the cluster's baseline — Baseline's answer, or the
// World's own — which depends on the deployment alone and so is resolved
// once per Cluster however often a Result is taken.
func (c *Cluster) centralizedBytes() int {
	c.baseOnce.Do(func() {
		if c.Baseline != nil {
			c.baseline = c.Baseline()
		} else {
			c.baseline = CentralizedBaseline(c.World)
		}
	})
	return c.baseline
}

// linkKey identifies a directed inter-site link.
type linkKey struct{ from, to int }

// sortedLinks converts the per-link accumulator into the Result form.
func sortedLinks(links map[linkKey]Costs) []LinkCost {
	if len(links) == 0 {
		return nil
	}
	out := make([]LinkCost, 0, len(links))
	for k, v := range links {
		out = append(out, LinkCost{From: k.from, To: k.to, Costs: v})
	}
	slices.SortFunc(out, func(a, b LinkCost) int {
		if c := cmp.Compare(a.From, b.From); c != 0 {
			return c
		}
		return cmp.Compare(a.To, b.To)
	})
	return out
}

// scoreSite scores one site's engine against its ground truth at evalAt.
func (c *Cluster) scoreSite(s int, evalAt model.Epoch, contErr, locErr *metrics.Counts) {
	tr := c.World.Sites[s]
	eng := c.Engines[s]
	contErr.Add(metrics.ContainmentErrorAt(tr, evalAt, eng.Container))
	locErr.Add(metrics.LocationErrorAt(tr, evalAt, model.KindItem, func(id model.TagID) model.Loc {
		return eng.LocationAt(id, evalAt)
	}))
}
