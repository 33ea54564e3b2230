// The site actor and the two replay schedules.
//
// Pipelined (the default, hook-free): every site is an actor that walks its
// own checkpoint timeline — ingest readings, apply this checkpoint's
// migration ops in global departure order, run inference, score — and
// parks only when an in-flight migration targeting it has not arrived yet.
// There is no global barrier: a site with no migrations this checkpoint
// streams ahead of its peers. The actors are resumable steps rather than
// goroutines: each round runs every unfinished site on the replay's worker
// pool (Cluster.Workers) until it finishes or parks, so a parked site
// holds no worker — the one it gave back helps inside the engines of the
// sites still running — and a budget of one can never deadlock.
//
// Barrier (hooks installed, and the ReplaySequential reference): one
// global loop per checkpoint — parallel ingest, migrations and hooks in
// global departure order, parallel inference, then hooks and scoring in
// site order.
//
// Determinism argument: every engine (inference and query) is owned by
// exactly one site and mutated only by that site's steps, one at a time,
// in a sequence fixed by the plan — ingest before ops, ops in global
// departure order, run after ops. A migration payload is a pure function of
// the source engine's state at its plan position, and channels deliver it to
// the same plan position at the destination. By induction over (checkpoint,
// departure order), every engine passes through exactly the states of the
// sequential reference, so error counts, byte counts and query alerts are
// bit-identical at any worker count. The e2e harness pins this. Progress
// follows from the same order: the site holding the globally earliest
// unexecuted op never parks on it (its payload, if it is an arrival, was
// sent by an earlier op), so every round advances.
package dist

import (
	"slices"
	"time"

	"rfidtrack/internal/metrics"
	"rfidtrack/internal/model"
	"rfidtrack/internal/query"
)

// siteRunner is one site actor: the site-owned state of a pipelined
// replay, including where its timeline stands between steps.
type siteRunner struct {
	c    *Cluster
	id   int
	feed []Reading
	ops  [][]planOp // per checkpoint, in global departure order
	q    *query.Engine
	// owned tracks which items this site currently owns (deterministic
	// site-local ONS view), maintained when a ClusterQuery is attached.
	owned map[model.TagID]bool

	// Timeline position: the checkpoint being worked on, the next reading
	// to ingest, the next op to apply, and whether this checkpoint's
	// readings are in yet.
	k, idx, opi int
	ingested    bool
	parkedAt    time.Time // when the last step parked; zero while running
	done        bool

	// Site-local result shards, merged in site order after the last round.
	contErr, locErr metrics.Counts
	links           map[linkKey]Costs
	queryBytes      int
	stats           SiteStats
	err             error
}

// step walks the site forward through its checkpoints until the timeline
// ends, an op fails, or an arrival's payload is not there yet — in which
// case it parks (returns with done unset) and the next round resumes at the
// same op.
func (s *siteRunner) step(interval model.Epoch) {
	if !s.parkedAt.IsZero() {
		s.stats.Stall += time.Since(s.parkedAt)
		s.parkedAt = time.Time{}
	}
	eng := s.c.Engines[s.id]
	for ; s.k < len(s.ops); s.k++ {
		ckpt := interval * model.Epoch(s.k+1)
		ops := s.ops[s.k]
		if !s.ingested {
			for s.idx < len(s.feed) && s.feed[s.idx].T < ckpt {
				ev := s.feed[s.idx]
				if s.err = eng.ObserveMask(ev.T, ev.ID, ev.Mask); s.err != nil {
					return
				}
				s.idx++
			}
			// Queue depth: migrations targeting this checkpoint that are
			// still in flight (not yet buffered) when the site reaches it.
			pending := 0
			for _, op := range ops {
				if op.arrive && len(op.ch) == 0 {
					pending++
				}
			}
			s.stats.InboxPeak = max(s.stats.InboxPeak, pending)
			s.ingested, s.opi = true, 0
		}
		for ; s.opi < len(ops); s.opi++ {
			op := ops[s.opi]
			d := s.c.deps[op.dep]
			if op.arrive {
				var payload []byte
				select {
				case payload = <-op.ch:
				default:
					s.parkedAt = time.Now()
					return
				}
				if s.err = s.c.applyPayload(d, payload); s.err != nil {
					return
				}
				if s.owned != nil {
					s.owned[d.Object] = true
				}
				accountReceive(payload, &s.stats)
			} else {
				s.c.ons.Move(d.Object, d.To)
				if s.owned != nil {
					delete(s.owned, d.Object)
				}
				payload, engineBytes, queryBytes, err := s.c.encodePayload(d)
				if err != nil {
					s.err = err
					return
				}
				accountSend(d, payload, engineBytes, queryBytes, s.links, &s.queryBytes, &s.stats)
				op.ch <- payload // cap 1: never blocks
			}
		}

		evalAt := ckpt - 1
		eng.Run(evalAt)
		if s.c.Query != nil {
			s.c.Query.Feed(s.id, s.q, eng, evalAt, s.owns)
		}
		s.c.scoreSite(s.id, evalAt, &s.contErr, &s.locErr)
		s.stats.Epochs++
		s.ingested = false
	}
	s.done = true
}

// owns reports whether this site currently owns an item: the
// deterministic, site-local view of the ONS, advanced by this site's own
// migration ops rather than read from the shared table.
func (s *siteRunner) owns(id model.TagID) bool { return s.owned[id] }

// replayPipelined is the concurrent cluster runtime: one actor per site,
// synchronized only through migration channels, stepped in rounds on one
// worker pool.
func (c *Cluster) replayPipelined(interval model.Epoch, workers int) (Result, error) {
	w := c.World
	numCkpts := int(w.Epochs / interval)
	feeds := buildFeeds(w, true)
	owned := c.initQueries()
	plan := c.buildPlan(interval, numCkpts)

	sites := make([]*siteRunner, len(w.Sites))
	for s := range sites {
		sr := &siteRunner{
			c:     c,
			id:    s,
			feed:  feeds[s],
			ops:   plan[s],
			links: make(map[linkKey]Costs),
		}
		if c.Query != nil {
			sr.q = c.siteQ[s]
			sr.owned = owned[s]
		}
		sites[s] = sr
	}

	pool := c.startPool(workers)
	defer c.stopPool(pool)
	for live := slices.Clone(sites); len(live) > 0; {
		pool.For(len(live), 1, func(i, _ int) { live[i].step(interval) })
		for _, sr := range live {
			if sr.err != nil {
				return Result{}, sr.err
			}
		}
		live = slices.DeleteFunc(live, func(sr *siteRunner) bool { return sr.done })
	}

	var res Result
	c.stats = ClusterStats{Sites: make([]SiteStats, len(sites))}
	links := make(map[linkKey]Costs)
	for s, sr := range sites {
		res.ContErr.Add(sr.contErr)
		res.LocErr.Add(sr.locErr)
		res.QueryStateBytes += sr.queryBytes
		for k, v := range sr.links {
			lc := links[k]
			lc.Bytes += v.Bytes
			lc.Messages += v.Messages
			links[k] = lc
		}
		c.stats.Sites[s] = sr.stats
	}
	for _, v := range links {
		res.Costs.Bytes += v.Bytes
		res.Costs.Messages += v.Messages
	}
	res.Links = sortedLinks(links)
	res.Runs = numCkpts
	res.CentralizedBytes = c.centralizedBytes()
	return res, nil
}

// replayBarrier is the checkpoint-synchronized schedule: the sequential
// reference at workers == 1, and the hook-compatible concurrent schedule
// otherwise (hooks and migrations always run on one goroutine, in order).
// It is implemented on the incremental Feed, which executes exactly this
// schedule one checkpoint at a time — so the replay and the streaming
// ingestion path (internal/serve) cannot drift apart.
func (c *Cluster) replayBarrier(interval model.Epoch, workers int) (Result, error) {
	f, err := c.openFeed(interval, workers)
	if err != nil {
		return Result{}, err
	}
	w := c.World
	for s, evs := range buildFeeds(w, false) {
		for _, ev := range evs {
			if err := f.Observe(s, ev.T, ev.ID, ev.Mask); err != nil {
				return Result{}, err
			}
		}
	}
	for _, d := range c.deps {
		if err := f.Depart(d); err != nil {
			return Result{}, err
		}
	}
	for k := 0; k < int(w.Epochs/interval); k++ {
		if err := f.Advance(); err != nil {
			return f.Result(), err
		}
	}
	return f.Close()
}

// migrateBarrier performs one departure under the barrier schedule:
// ownership move, hooks, then the same encode → wire → decode transfer the
// pipelined schedule uses.
func (c *Cluster) migrateBarrier(d Departure, res *Result, links map[linkKey]Costs, owned []map[model.TagID]bool) error {
	c.ons.Move(d.Object, d.To)
	if c.Hooks.OnDepart != nil {
		c.Hooks.OnDepart(d)
	}
	if owned != nil {
		delete(owned[d.From], d.Object)
		owned[d.To][d.Object] = true
	}
	payload, engineBytes, queryBytes, err := c.encodePayload(d)
	if err != nil {
		return err
	}
	if err := c.applyPayload(d, payload); err != nil {
		return err
	}
	accountSend(d, payload, engineBytes, queryBytes, links, &res.QueryStateBytes, &c.stats.Sites[d.From])
	accountReceive(payload, &c.stats.Sites[d.To])
	return nil
}

// accountSend records one encoded transfer on the sending side: per-link
// engine bytes (Table 5 accounting), query-state bytes, and the source
// site's counters. Both replay schedules and the feed go through this one
// helper, which is what keeps their cost accounting bit-identical.
func accountSend(d Departure, payload []byte, engineBytes, queryBytes int, links map[linkKey]Costs, queryTotal *int, out *SiteStats) {
	if engineBytes > 0 {
		lk := linkKey{from: d.From, to: d.To}
		lc := links[lk]
		lc.Bytes += engineBytes
		lc.Messages++
		links[lk] = lc
	}
	*queryTotal += queryBytes
	if len(payload) > 0 {
		out.MigrationsOut++
		out.BytesOut += len(payload)
	}
}

// accountReceive records one transfer on the receiving side.
func accountReceive(payload []byte, in *SiteStats) {
	if len(payload) > 0 {
		in.MigrationsIn++
		in.BytesIn += len(payload)
	}
}
