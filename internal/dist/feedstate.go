// Durable-state surface of the incremental feed: ExportState captures the
// cluster-level runtime an open Feed has accumulated — replay scores,
// per-link migration costs, ownership (both the shared ONS table and the
// deterministic per-site views), per-site counters — and ImportState
// installs it into a freshly opened feed so a recovered process continues
// the replay exactly where the snapshot left off. Together with
// rfinfer.EngineState (per-site inference state) and the query pattern
// partitions, this is the full semantic state of the online runtime;
// internal/wal serializes it and internal/serve replays the WAL tail on
// top (readings and departures at or past the snapshot boundary re-enter
// through the normal ingest path, which is what makes recovery
// bit-identical to an uninterrupted run).
package dist

import (
	"fmt"
	"slices"

	"rfidtrack/internal/metrics"
	"rfidtrack/internal/model"
)

// FeedState is the serializable cluster-level runtime state of an open
// Feed at a checkpoint boundary. Buffered future readings and departures
// are deliberately absent: every accepted event at or past the boundary is
// in the write-ahead log, and recovery re-ingests that tail through the
// normal path instead of trusting two copies to agree.
type FeedState struct {
	// Next is the boundary: the epoch of the next checkpoint to run.
	Next model.Epoch
	// ContErr and LocErr are the accumulated replay scores; Runs the number
	// of completed checkpoints; QueryStateBytes the migrated pattern-state
	// traffic — the raw accumulators behind Feed.Result.
	ContErr, LocErr metrics.Counts
	Runs            int
	QueryStateBytes int
	// Links is the per-link migration cost table, sorted by (From, To).
	Links []LinkCost
	// Owner is the ONS table: the owning site of every tag.
	Owner []int32
	// Owned is each site's deterministic local ownership view (nil when no
	// ClusterQuery is attached), each list sorted by tag.
	Owned [][]model.TagID
	// Sites is the per-site runtime counter table (ClusterStats.Sites).
	Sites []SiteStats
	// Stats is the feed's ingestion accounting. Buffered and
	// PendingDepartures are derived fields and restore to zero; the WAL
	// tail replay rebuilds the real buffers.
	Stats FeedStats
}

// PendingDepartures returns a copy of the buffered departure events no
// checkpoint has observed yet. A durable front end includes them in its
// snapshot (they left the write-ahead segments that are about to be
// retired, but have not yet entered any engine's state).
func (f *Feed) PendingDepartures() []Departure {
	return append([]Departure(nil), f.deps...)
}

// ExportState captures the feed + cluster runtime state at the current
// checkpoint boundary. Call it only between checkpoints (the serve
// scheduler holds its lock across AdvanceWith and Export, which guarantees
// this).
func (f *Feed) ExportState() FeedState {
	c := f.c
	st := FeedState{
		Next:            f.next,
		ContErr:         f.res.ContErr,
		LocErr:          f.res.LocErr,
		Runs:            f.res.Runs,
		QueryStateBytes: f.res.QueryStateBytes,
		Links:           sortedLinks(f.links),
		Owner:           make([]int32, c.World.NumTags()),
		Sites:           make([]SiteStats, len(c.stats.Sites)),
		Stats:           f.stats,
	}
	for id := range st.Owner {
		st.Owner[id] = int32(c.ons.Lookup(model.TagID(id)))
	}
	if f.owned != nil {
		st.Owned = make([][]model.TagID, len(f.owned))
		for s, m := range f.owned {
			ids := make([]model.TagID, 0, len(m))
			for id := range m {
				ids = append(ids, id)
			}
			slices.Sort(ids)
			st.Owned[s] = ids
		}
	}
	copy(st.Sites, c.stats.Sites)
	return st
}

// ImportState installs an exported state into this feed, which must be
// freshly opened over an equivalent cluster (same world, same query
// attachment). Buffered events are not part of the state: replay the
// write-ahead-log tail afterwards to rebuild them.
func (f *Feed) ImportState(st FeedState) error {
	c := f.c
	if len(st.Owner) != c.World.NumTags() {
		return fmt.Errorf("dist: feed state covers %d tags, world has %d", len(st.Owner), c.World.NumTags())
	}
	if st.Owned != nil && len(st.Owned) != len(f.owned) {
		return fmt.Errorf("dist: feed state has %d site ownership views, cluster has %d", len(st.Owned), len(f.owned))
	}
	if len(st.Sites) != len(c.stats.Sites) {
		return fmt.Errorf("dist: feed state has %d site stat rows, cluster has %d", len(st.Sites), len(c.stats.Sites))
	}
	if st.Next < f.interval || st.Next%f.interval != 0 || st.Next > MaxEpoch {
		return fmt.Errorf("dist: feed state boundary %d is not a Δ=%d checkpoint epoch", st.Next, f.interval)
	}
	f.next = st.Next
	f.res.ContErr = st.ContErr
	f.res.LocErr = st.LocErr
	f.res.Runs = st.Runs
	f.res.QueryStateBytes = st.QueryStateBytes
	clear(f.links)
	for _, lc := range st.Links {
		n := len(c.World.Sites)
		if lc.From < 0 || lc.From >= n || lc.To < 0 || lc.To >= n {
			return fmt.Errorf("dist: feed state link %d->%d invalid for %d sites", lc.From, lc.To, n)
		}
		f.links[linkKey{from: lc.From, to: lc.To}] = lc.Costs
	}
	for id, site := range st.Owner {
		if int(site) < 0 || int(site) >= len(c.World.Sites) {
			return fmt.Errorf("dist: feed state owner %d out of range for tag %d", site, id)
		}
		c.ons.Move(model.TagID(id), int(site))
	}
	if st.Owned != nil {
		for s, ids := range st.Owned {
			m := f.owned[s]
			clear(m)
			for _, id := range ids {
				m[id] = true
			}
		}
	}
	copy(c.stats.Sites, st.Sites)
	f.stats = st.Stats
	f.stats.Buffered = 0
	f.stats.PendingDepartures = 0
	return nil
}
