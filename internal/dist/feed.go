// The incremental feed: the checkpoint engine of the cluster runtime.
//
// A Feed turns the Cluster from a replay-only artifact into an online
// system: departure events are pushed as they arrive, and AdvanceWith runs
// one Δ-interval checkpoint at a time over the interval's readings, handed
// in per site by the caller — ingest them, apply the interval's migrations
// in global departure order, run inference at every site, feed the
// per-site queries, score. The Feed holds no readings: whoever drives it
// cuts the intervals. Replay and ReplaySequential cut a whole world with
// Intervals (see site.go); internal/serve's shards bucket a live stream and
// hand each sealed interval over, so a world streamed incrementally yields
// a Result bit-identical to ReplaySequential on the same trace, at any
// worker count. AdvanceWith ingests the caller's slices in place without
// copying — that is what lets ingestion proceed concurrently with a
// running checkpoint.
//
// A Feed owns the checkpoint's one worker pool (internal/workpool, sized by
// Cluster.Workers) from OpenFeed to Close: its site loops and every site
// engine's phases run on it, so a worker that finishes the quiet sites'
// checkpoints goes on to help inside the busy site's inference.
package dist

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"rfidtrack/internal/metrics"
	"rfidtrack/internal/model"
	"rfidtrack/internal/rfinfer"
	"rfidtrack/internal/workpool"
)

// Reading is one site-local tag observation in flight through the feed: the
// epoch, the tag read, and the bitmask of reader locations that saw it. It
// is the element type of the sharded ingest buckets (internal/serve) and of
// the per-site batches AdvanceWith consumes, which Intervals cuts from a
// trace.
type Reading struct {
	// T is the observation epoch.
	T model.Epoch `json:"t"`
	// ID is the tag that was read.
	ID model.TagID `json:"id"`
	// Mask is the bitmask of reader locations that saw the tag.
	Mask model.Mask `json:"mask"`
}

// Feed is the incremental checkpoint interface of a Cluster: push
// departures, then AdvanceWith through checkpoints, each with its
// interval's readings. A site's batch may be in any order; each checkpoint
// ingests it in (epoch, tag) order, which is what makes the outcome
// independent of arrival order.
//
// A Feed is not safe for concurrent use: the caller (e.g. the serve
// scheduler) must serialize all method calls. Exactly one Feed may be open
// per Cluster at a time, and a Cluster being fed must not concurrently
// Replay. Close releases the feed's worker pool.
type Feed struct {
	c        *Cluster
	interval model.Epoch
	pool     *workpool.Pool // shared with every site engine; closed by Close

	next      model.Epoch // next checkpoint epoch to run
	deps      []Departure // buffered departures not yet observed
	depsDirty bool        // deps gained entries since the last checkpoint's sort
	owned     []map[model.TagID]bool
	links     map[linkKey]Costs
	res       Result
	tails     []tailShard // per-site score shards of the fanned-out tail
	ingested  []int       // per-site ingest counts, reused across checkpoints
	siteErrs  []error     // runSites' per-site errors

	// partOwned is the peer's ownership mask in a partitioned feed (nil for
	// a whole-cluster feed): only owned sites ingest, run and score here;
	// cross-partition migrations travel through transport.
	partOwned []bool
	transport Transport

	stats  FeedStats
	closed bool
}

// tailShard is one site's score contribution from a fanned-out checkpoint
// tail, merged into the Result in site order after the join so totals stay
// bit-identical to the sequential schedule.
type tailShard struct {
	cont, loc metrics.Counts
}

// MaxEpoch bounds the epochs a Feed accepts: high enough for any real
// stream, low enough that checkpoint arithmetic can never overflow the
// 32-bit Epoch type.
const MaxEpoch = model.Epoch(1) << 30

// PhaseNS breaks checkpoint time into its pipeline phases: interval ingest,
// migrations in departure order, inference, and the query-feed + scoring
// tail. Each entry is the wall time of that phase. They do not say how many
// cores a checkpoint used — workers that finish the quiet sites help inside
// the busy site's inference within the same Infer phase; Feed.PoolStats
// answers that.
type PhaseNS struct {
	// Ingest is the (epoch, tag)-ordered interval ingest phase.
	Ingest time.Duration `json:"ingest_ns"`
	// Migrate is the departure-ordered state-migration phase.
	Migrate time.Duration `json:"migrate_ns"`
	// Infer is the per-site inference phase.
	Infer time.Duration `json:"infer_ns"`
	// Tail is the hook / query-feed / scoring phase.
	Tail time.Duration `json:"tail_ns"`
}

// add accumulates another breakdown.
func (p *PhaseNS) add(o PhaseNS) {
	p.Ingest += o.Ingest
	p.Migrate += o.Migrate
	p.Infer += o.Infer
	p.Tail += o.Tail
}

// FeedStats counts the traffic a Feed has accepted and refused.
type FeedStats struct {
	// Observed is the number of readings ingested into site engines.
	Observed int
	// Buffered is the number of readings waiting for a future checkpoint.
	// A Feed holds none, so it reports zero; a front end that buckets
	// readings (internal/serve) fills it in.
	Buffered int
	// Late counts readings dropped because their checkpoint had already
	// run when they arrived (ingesting them would break determinism).
	// Readings reach a Feed only with their own checkpoint, so it is
	// counted by the front end that buckets them, never by the Feed.
	Late int
	// LateDepartures counts departure events dropped for the same reason.
	LateDepartures int
	// DupDepartures counts exact duplicate departures dropped at a
	// checkpoint — the idempotence an at-least-once producer (a retrying
	// edge relay, a recovery replay) relies on.
	DupDepartures int
	// PendingDepartures is the number of buffered future departures.
	PendingDepartures int
	// Checkpoints is the number of completed checkpoints.
	Checkpoints int
	// FusedCheckpoints is always zero. It counted checkpoints that took a
	// second, per-site "fused" schedule, retired once the shared pool made
	// it redundant; the field stays because bench/ (frozen between
	// benchmark issues) still reads it for dist.fused_share.
	FusedCheckpoints int
	// Phases accumulates per-phase checkpoint latency across all checkpoints;
	// LastPhases is the most recent checkpoint's breakdown.
	Phases, LastPhases PhaseNS
}

// OpenFeed prepares the cluster for incremental ingestion with Δ-interval
// checkpoints. It resets the cluster's runtime counters and (when a
// ClusterQuery is attached) builds fresh per-site query engines.
func (c *Cluster) OpenFeed(interval model.Epoch) (*Feed, error) {
	return c.openFeed(interval, c.Workers)
}

// OpenPartitionedFeed prepares one peer's slice of the cluster for
// incremental ingestion: the feed ingests, runs and scores only the sites
// owned[s] marks true, and migrations crossing the partition boundary
// travel through tr. Departures must still be delivered to every peer
// (Depart accepts all of them): the broadcast stream is what keeps each
// peer's global departure order — and its ONS mirror and query-ownership
// view — identical, which is the induction the cross-process determinism
// argument rests on (see coord.go). Hooks are not supported: a hook may
// read cross-site state that lives on another peer.
func (c *Cluster) OpenPartitionedFeed(interval model.Epoch, owned []bool, tr Transport) (*Feed, error) {
	if c.Hooks.OnDepart != nil || c.Hooks.OnCheckpoint != nil {
		return nil, fmt.Errorf("dist: hooks are not supported on a partitioned feed")
	}
	if len(owned) != len(c.World.Sites) {
		return nil, fmt.Errorf("dist: ownership mask covers %d sites, want %d", len(owned), len(c.World.Sites))
	}
	if tr == nil {
		return nil, fmt.Errorf("dist: partitioned feed needs a transport")
	}
	f, err := c.openFeed(interval, c.Workers)
	if err != nil {
		return nil, err
	}
	f.partOwned = append([]bool(nil), owned...)
	f.transport = tr
	return f, nil
}

// owns reports whether site s runs on this feed's peer.
func (f *Feed) owns(s int) bool { return f.partOwned == nil || f.partOwned[s] }

// openFeed is OpenFeed with an explicit worker budget (the sequential
// reference uses 1; 0 means GOMAXPROCS).
func (c *Cluster) openFeed(interval model.Epoch, workers int) (*Feed, error) {
	if interval <= 0 {
		return nil, fmt.Errorf("dist: interval must be positive, got %d", interval)
	}
	n := len(c.World.Sites)
	f := &Feed{
		c:        c,
		interval: interval,
		pool:     c.startPool(workers),
		next:     interval,
		links:    make(map[linkKey]Costs),
		owned:    c.initQueries(),
		tails:    make([]tailShard, n),
		ingested: make([]int, n),
		siteErrs: make([]error, n),
	}
	c.stats = ClusterStats{Sites: make([]SiteStats, len(c.World.Sites))}
	return f, nil
}

// Next returns the epoch of the next checkpoint AdvanceWith would run.
func (f *Feed) Next() model.Epoch { return f.next }

// Interval returns the feed's Δ between checkpoints.
func (f *Feed) Interval() model.Epoch { return f.interval }

// PoolStats returns the counters of the feed's worker pool. Between two
// calls one checkpoint apart, 1 + ΔBusyNS ÷ the checkpoint's wall time is
// how many cores it used.
func (f *Feed) PoolStats() workpool.Stats { return f.pool.Stats() }

// Stats returns the feed's ingestion counters.
func (f *Feed) Stats() FeedStats {
	st := f.stats
	st.PendingDepartures = len(f.deps)
	return st
}

// Depart buffers one departure event. The transfer happens at the first
// checkpoint past d.At, exactly where the reference replay migrates;
// departures arriving after that checkpoint ran are dropped and counted.
// Only items migrate: a case or pallet departure is refused, since no
// engine registers the tag as an object to move.
func (f *Feed) Depart(d Departure) error {
	if f.closed {
		return fmt.Errorf("dist: feed is closed")
	}
	n := len(f.c.World.Sites)
	if d.From < 0 || d.From >= n || d.To < 0 || d.To >= n || d.From == d.To {
		return fmt.Errorf("dist: departure %d->%d invalid for %d sites", d.From, d.To, n)
	}
	if int(d.Object) < 0 || int(d.Object) >= f.c.World.NumTags() {
		return fmt.Errorf("dist: departing object %d out of range", d.Object)
	}
	if f.c.World.Sites[0].Tags[d.Object].Kind != model.KindItem {
		return fmt.Errorf("dist: departing tag %d is not an item", d.Object)
	}
	if d.At < 0 || d.At >= MaxEpoch {
		return fmt.Errorf("dist: departure epoch %d out of range [0,%d)", d.At, MaxEpoch)
	}
	if d.At < f.next-f.interval {
		f.stats.LateDepartures++
		return nil
	}
	f.deps = append(f.deps, d)
	f.depsDirty = true
	return nil
}

// sortReadings orders one interval bucket by (epoch, tag). This runs for
// every site at every checkpoint, so it must not allocate: slices.SortFunc
// with a capture-free comparator stays off the heap, unlike the closure
// sort.Slice builds per call.
func sortReadings(evs []Reading) {
	slices.SortFunc(evs, func(a, b Reading) int {
		if c := cmp.Compare(a.T, b.T); c != 0 {
			return c
		}
		return cmp.Compare(a.ID, b.ID)
	})
}

// AdvanceWith runs the next checkpoint over due, one batch of readings per
// site, in four phases: every site ingests its batch in (epoch, tag) order;
// the due departures migrate in global (time, object) order on the calling
// goroutine; every site runs inference; then hooks, query feeding and
// scoring. The per-site phases fan out over the pool and touch only
// site-local state, and per-site score subtotals merge in site order, so the
// Result is bit-identical at every pool size. A phase barrier idles no
// core: a worker that finishes the quiet sites helps inside the busy site's
// engine, which fans out on the same pool.
//
// Every reading in due must belong to the current interval
// [Next()-Interval(), Next()); the slices are sorted in place and released
// when AdvanceWith returns, so the caller may recycle their backing arrays.
// due may be nil (a checkpoint without readings) and its entries may be nil
// or empty.
func (f *Feed) AdvanceWith(due [][]Reading) error {
	if f.closed {
		return fmt.Errorf("dist: feed is closed")
	}
	if f.next >= MaxEpoch {
		return fmt.Errorf("dist: checkpoint %d beyond MaxEpoch", f.next)
	}
	if due != nil && len(due) != len(f.ingested) {
		return fmt.Errorf("dist: AdvanceWith got %d site batches, want %d", len(due), len(f.ingested))
	}
	ckpt := f.next

	// Departures observed by this checkpoint migrate before any site runs,
	// so the destination's run already sees the imported state. The sort
	// totally orders the buffer (the trailing fields never differ between
	// distinct real events), so exact duplicates — an at-least-once
	// producer re-sending a batch whose ack was lost, or a recovery replay
	// overlapping a snapshot — land adjacent and are dropped: departure
	// ingest is idempotent, like reading ingest (mask merge) already is.
	if f.depsDirty {
		slices.SortFunc(f.deps, func(a, b Departure) int {
			if c := cmp.Compare(a.At, b.At); c != 0 {
				return c
			}
			if c := cmp.Compare(a.Object, b.Object); c != 0 {
				return c
			}
			if c := cmp.Compare(a.From, b.From); c != 0 {
				return c
			}
			return cmp.Compare(a.To, b.To)
		})
		dups := 0
		w := 0
		for i, d := range f.deps {
			if i > 0 && d == f.deps[w-1] {
				dups++
				continue
			}
			f.deps[w] = d
			w++
		}
		f.deps = f.deps[:w]
		f.stats.DupDepartures += dups
		f.depsDirty = false
	}
	nDue := 0
	for nDue < len(f.deps) && f.deps[nDue].At < ckpt {
		nDue++
	}

	var phases PhaseNS
	phaseStart := time.Now()
	if err := f.runSites(func(s int) error {
		var batch []Reading
		if due != nil {
			batch = due[s]
		}
		return f.ingestSite(s, batch, ckpt)
	}); err != nil {
		return err
	}
	phases.Ingest = time.Since(phaseStart)
	phaseStart = time.Now()

	for _, d := range f.deps[:nDue] {
		if err := f.migrate(d); err != nil {
			return err
		}
	}
	f.deps = append(f.deps[:0], f.deps[nDue:]...)
	phases.Migrate = time.Since(phaseStart)
	phaseStart = time.Now()

	evalAt := ckpt - 1
	f.runSites(func(s int) error {
		if f.owns(s) {
			f.c.Engines[s].Run(evalAt)
		}
		return nil
	})
	phases.Infer = time.Since(phaseStart)
	phaseStart = time.Now()

	f.runTail(evalAt)
	phases.Tail = time.Since(phaseStart)

	for _, n := range f.ingested {
		f.stats.Observed += n
	}

	f.res.Runs++
	f.stats.Checkpoints++
	f.stats.Phases.add(phases)
	f.stats.LastPhases = phases
	f.next += f.interval
	return nil
}

// ingestSite sorts site s's batch by (epoch, tag) and feeds it to the site
// engine. It touches only site-local state, so any number of sites may
// ingest concurrently.
func (f *Feed) ingestSite(s int, batch []Reading, ckpt model.Epoch) error {
	f.ingested[s] = 0
	if len(batch) == 0 {
		return nil
	}
	if !f.owns(s) {
		// A batch for a site another peer runs is a routing bug worth
		// failing loudly on.
		return fmt.Errorf("dist: batch for site %d, which this peer does not own", s)
	}
	sortReadings(batch)
	// One O(1) range check on the sorted batch guards the AdvanceWith
	// contract: a reading outside the current interval would silently be
	// ingested at the wrong checkpoint.
	if lo, hi := batch[0].T, batch[len(batch)-1].T; lo < ckpt-f.interval || hi >= ckpt {
		return fmt.Errorf("dist: site %d batch spans [%d,%d], outside checkpoint %d's interval", s, lo, hi, ckpt)
	}
	eng := f.c.Engines[s]
	for _, ev := range batch {
		if err := eng.ObserveMask(ev.T, ev.ID, ev.Mask); err != nil {
			return err
		}
	}
	f.ingested[s] = len(batch)
	return nil
}

// runSites runs fn(s) for every site on the feed's pool; a pool of 1 walks
// them in site order on the calling goroutine. Every site runs even after a
// failure and the lowest-numbered failing site's error is returned, so the
// outcome is independent of who claimed what.
func (f *Feed) runSites(fn func(s int) error) error {
	f.pool.For(len(f.siteErrs), 1, func(s, _ int) {
		f.siteErrs[s] = fn(s)
	})
	for _, err := range f.siteErrs {
		if err != nil {
			return err
		}
	}
	return nil
}

// migrate performs one due departure: the ONS and ownership views move,
// OnDepart fires, and the object's state travels as encoded bytes from the
// source engines to the destination's. On a partitioned feed each endpoint
// does its half only where it is local — the source side encodes, forgets
// the object's inference state, accounts the send and ships the payload out
// through the transport; the destination side receives, applies and
// accounts; a departure between two remote sites updates only the ONS
// mirror and ownership view (every peer observes every departure — that is
// what keeps the mirrors complete). Whether bytes cross
// the transport at all is decided by the same predicate on both sides — the
// strategy or an attached query implies a payload — so sender and receiver
// always agree without negotiation, even when the encoded payload happens
// to be empty.
func (f *Feed) migrate(d Departure) error {
	c := f.c
	c.ons.Move(d.Object, d.To)
	if c.Hooks.OnDepart != nil {
		c.Hooks.OnDepart(d)
	}
	if f.owned != nil {
		delete(f.owned[d.From], d.Object)
		f.owned[d.To][d.Object] = true
	}
	fromLocal, toLocal := f.owns(d.From), f.owns(d.To)
	wire := c.Strategy != MigrateNone || c.hasQuerySection()
	var payload []byte
	var err error
	switch {
	case fromLocal:
		var engineBytes, queryBytes int
		if payload, engineBytes, queryBytes, err = c.encodePayload(d); err != nil {
			return err
		}
		c.Engines[d.From].Forget(d.Object)
		accountSend(d, payload, engineBytes, queryBytes, f.links, &f.res.QueryStateBytes, &c.stats.Sites[d.From])
		if !toLocal && wire {
			err = f.transport.Send(d, payload)
		}
	case toLocal && wire:
		payload, err = f.transport.Recv(d)
	}
	if err != nil {
		return err
	}
	if toLocal {
		if err := c.applyPayload(d, payload); err != nil {
			return err
		}
		accountReceive(payload, &c.stats.Sites[d.To])
	}
	return nil
}

// runTail runs the post-inference tail of one checkpoint: hooks, query
// feeding and scoring. With a checkpoint hook installed it keeps the
// sequential site order, since a hook may read cross-site state. Hook-free
// it fans out over sites — each site's query engine is touched only by its
// own task — and merges the integer score subtotals in site order, which is
// exact, so the Result stays bit-identical.
func (f *Feed) runTail(evalAt model.Epoch) {
	c := f.c
	if c.Hooks.OnCheckpoint != nil {
		for s, eng := range c.Engines {
			f.tails[s] = tailShard{}
			if f.owns(s) {
				c.Hooks.OnCheckpoint(s, eng, evalAt)
				f.tailSite(s, evalAt)
			}
		}
	} else {
		f.runSites(func(s int) error {
			f.tails[s] = tailShard{}
			if f.owns(s) {
				f.tailSite(s, evalAt)
			}
			return nil
		})
	}
	f.mergeTails()
}

// tailSite feeds site s's query engine and scores the site into its shard.
func (f *Feed) tailSite(s int, evalAt model.Epoch) {
	f.feedQuery(s, f.c.Engines[s], evalAt)
	f.c.scoreSite(s, evalAt, &f.tails[s].cont, &f.tails[s].loc)
	f.c.stats.Sites[s].Epochs++
}

// mergeTails folds the per-site score shards into the Result in site order.
func (f *Feed) mergeTails() {
	for s := range f.tails {
		f.res.ContErr.Add(f.tails[s].cont)
		f.res.LocErr.Add(f.tails[s].loc)
	}
}

// feedQuery pushes one site's checkpoint into its continuous query engine.
func (f *Feed) feedQuery(s int, eng *rfinfer.Engine, evalAt model.Epoch) {
	c := f.c
	if c.Query == nil {
		return
	}
	own := f.owned[s]
	c.Query.Feed(s, c.siteQ[s], eng, evalAt, func(id model.TagID) bool {
		return own[id]
	})
}

// Result snapshots the accumulated replay result: error counts, migration
// costs per link, query state bytes and the centralized baseline, in the
// exact shape Replay and ReplaySequential return. After Close it is the
// final result.
func (f *Feed) Result() Result {
	res := f.res
	res.Costs = Costs{}
	for _, v := range f.links {
		res.Costs.Bytes += v.Bytes
		res.Costs.Messages += v.Messages
	}
	res.Links = sortedLinks(f.links)
	res.CentralizedBytes = f.c.centralizedBytes()
	return res
}

// Close finalizes the feed and releases its worker pool; Result still
// reads the closed feed. Buffered departures past the last completed
// checkpoint are discarded, matching the reference replay, which never
// observes them either.
func (f *Feed) Close() error {
	if f.closed {
		return fmt.Errorf("dist: feed already closed")
	}
	f.closed = true
	f.c.stopPool(f.pool)
	return nil
}
