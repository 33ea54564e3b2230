// The sharded ingest front end: one stripe per site. Producers validate
// and interval-bucket their own readings under the stripe's lock — the
// scheduler goroutine never touches a reading until its checkpoint seals
// the bucket — so ingestion for future intervals proceeds at full speed
// while a checkpoint is running. That is the pipelining that decouples
// ingest latency from checkpoint latency.
package serve

import (
	"sync"

	"rfidtrack/internal/dist"
	"rfidtrack/internal/model"
)

// maxFreeBuckets bounds each shard's recycled-bucket freelist; beyond this
// the steady state is already allocation-free and extra slices are garbage.
const maxFreeBuckets = 8

// maxShardIntervals bounds how many Δ-intervals ahead of the sealed
// boundary a reading may bucket, mirroring the feed's own skip bound: one
// interval costs one bucket slot per shard, so without this cap a single
// far-future reading admitted by a distant Horizon would grow a
// multi-million-slot bucket window under the stripe lock. MaxSkip already
// bounds the no-Horizon path more tightly.
const maxShardIntervals = 1 << 20

// shard is one site's stripe of the ingest queue. All fields below mu are
// guarded by it. Ingesting goroutines hold the lock for validation and
// bucket appends; the scheduler holds it only for the O(1) seal (bucket
// pop) and recycle steps around each checkpoint.
type shard struct {
	site    int
	readers int             // number of reader locations at the site
	kinds   []model.TagKind // per-tag kind, dense for cache-friendly validation

	mu   sync.Mutex
	cond *sync.Cond // backpressure: waiters for a checkpoint to drain
	// buckets[k] holds the readings of interval [ (base+k)*Δ, (base+k+1)*Δ ).
	buckets [][]dist.Reading
	free    [][]dist.Reading // recycled bucket backing arrays
	base    int              // absolute interval index of buckets[0]
	// lateBefore is the sealing boundary: readings below it belong to a
	// checkpoint that has started (or finished) and are counted late.
	lateBefore model.Epoch
	maxT       model.Epoch // latest accepted reading epoch on this stripe
	backlog    int         // readings buffered and awaiting their checkpoint
	received   int         // readings routed to this stripe (valid or not)
	late       int         // readings dropped because their checkpoint sealed
	waits      int         // times a producer blocked on backpressure
}

// ShardStats is one ingest stripe's counters, exposed in Stats.Shards.
type ShardStats struct {
	// Site is the stripe's site index.
	Site int `json:"site"`
	// Received counts readings routed to the stripe (including rejected
	// ones); Late counts readings dropped because their checkpoint had
	// already sealed.
	Received int `json:"received"`
	Late     int `json:"late"`
	// Buffered is the stripe's current backlog of readings awaiting their
	// checkpoint.
	Buffered int `json:"buffered"`
	// StreamTime is the latest accepted reading epoch on the stripe.
	StreamTime model.Epoch `json:"stream_time"`
	// Waits counts producer blocks on the stripe's backpressure bound.
	Waits int `json:"backpressure_waits"`
}

// newShard builds the stripe for one site, precomputing the dense
// validation tables so the hot path never chases into the world layout.
func newShard(site int, readers int, kinds []model.TagKind) *shard {
	sh := &shard{site: site, readers: readers, kinds: kinds}
	sh.cond = sync.NewCond(&sh.mu)
	return sh
}

// seal marks every reading below ckpt late-from-now-on and pops the sealed
// interval's bucket. The scheduler calls it at the start of checkpoint ckpt;
// from this moment producers bucket only future intervals, concurrently
// with the running checkpoint.
func (sh *shard) seal(ckpt, interval model.Epoch) []dist.Reading {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	target := int(ckpt / interval)
	var due []dist.Reading
	for sh.base < target {
		if len(sh.buckets) > 0 {
			b := sh.buckets[0]
			n := copy(sh.buckets, sh.buckets[1:])
			sh.buckets = sh.buckets[:n]
			if due == nil {
				due = b
			} else if len(b) > 0 {
				// Only reachable if a checkpoint was skipped, which the
				// scheduler never does; kept for safety.
				due = append(due, b...)
			} else {
				sh.recycleLocked(b)
			}
		}
		sh.base++
	}
	sh.backlog -= len(due)
	sh.lateBefore = ckpt
	return due
}

// recycle returns a consumed bucket's backing array to the freelist and
// wakes producers blocked on backpressure. Called by the scheduler after
// AdvanceWith has released the slice.
func (sh *shard) recycle(b []dist.Reading) {
	sh.mu.Lock()
	sh.recycleLocked(b)
	sh.cond.Broadcast()
	sh.mu.Unlock()
}

// recycleLocked is recycle without the lock or wakeup.
func (sh *shard) recycleLocked(b []dist.Reading) {
	if cap(b) > 0 && len(sh.free) < maxFreeBuckets {
		sh.free = append(sh.free, b[:0])
	}
}

// growTo widens the bucket window to cover relative interval index k,
// reusing recycled backing arrays. Caller holds mu.
func (sh *shard) growTo(k int) {
	for len(sh.buckets) <= k {
		var b []dist.Reading
		if n := len(sh.free); n > 0 {
			b, sh.free = sh.free[n-1], sh.free[:n-1]
		}
		sh.buckets = append(sh.buckets, b)
	}
}

// exportBufferedLocked flattens the stripe's future-interval buckets into
// one slice for a durable snapshot. Caller holds mu (the snapshot takes it
// together with the segment rotation, so the export and the WAL cut are
// one instant).
func (sh *shard) exportBufferedLocked() []dist.Reading {
	var out []dist.Reading
	for _, b := range sh.buckets {
		out = append(out, b...)
	}
	return out
}

// inject re-buckets recovered readings without touching the received/late
// counters — the snapshot's restored counters already account for them.
// Epoch-to-bucket routing re-derives from each reading's epoch, so the
// export order never needs to survive.
func (sh *shard) inject(rs []dist.Reading, interval model.Epoch) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for _, rd := range rs {
		k := int(rd.T/interval) - sh.base
		if k < 0 {
			continue // older than the sealed boundary: already consumed
		}
		sh.growTo(k)
		sh.buckets[k] = append(sh.buckets[k], rd)
		sh.backlog++
		if rd.T > sh.maxT {
			sh.maxT = rd.T
		}
	}
}

// restoreCounters seeds the stripe's lifetime counters from a snapshot so
// /stats stays continuous across a restart.
func (sh *shard) restoreCounters(received, late int) {
	sh.mu.Lock()
	sh.received = received
	sh.late = late
	sh.mu.Unlock()
}

// stats snapshots the stripe's counters.
func (sh *shard) stats() ShardStats {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return ShardStats{
		Site:       sh.site,
		Received:   sh.received,
		Late:       sh.late,
		Buffered:   sh.backlog,
		StreamTime: sh.maxT,
		Waits:      sh.waits,
	}
}
