// The sharded ingest front end: one stripe per site. Producers validate
// and interval-bucket their own readings under the stripe's lock — the
// scheduler goroutine never touches a reading until its checkpoint seals
// the bucket — so ingestion for future intervals proceeds at full speed
// while a checkpoint is running. That is the pipelining that decouples
// ingest latency from checkpoint latency.
package serve

import (
	"slices"
	"sync"

	"rfidtrack/internal/dist"
	"rfidtrack/internal/model"
)

// maxFreeBuckets bounds each shard's freelist of recycled chunk backings;
// beyond this the steady state is already allocation-free and extra slices
// are garbage.
const maxFreeBuckets = 8

// A bucket grows by chunks: when its last chunk is full, the next one holds
// as many readings as the bucket already does, clamped to [minChunk,
// maxChunk]. An open bucket so holds at most twice its readings plus
// minChunk, and an append never moves a reading already buffered.
const (
	minChunk = 256
	maxChunk = 1 << 16
)

// maxShardIntervals bounds how many Δ-intervals ahead of the sealed
// boundary a reading may bucket, mirroring the feed's own skip bound: one
// interval costs one bucket slot per shard, so without this cap a single
// far-future reading admitted by a distant Horizon would grow a
// multi-million-slot bucket window under the stripe lock. MaxSkip already
// bounds the no-Horizon path more tightly.
const maxShardIntervals = 1 << 20

// shard is one site's stripe of the ingest queue. All fields below mu are
// guarded by it. Ingesting goroutines hold the lock for validation and
// bucket appends; the scheduler holds it only for the seal (a bucket pop,
// plus one gather copy when the interval outgrew its first chunk) and
// recycle steps around each checkpoint.
type shard struct {
	site    int
	readers int             // number of reader locations at the site
	kinds   []model.TagKind // per-tag kind, dense for cache-friendly validation

	mu   sync.Mutex
	cond *sync.Cond // backpressure: waiters for a checkpoint to drain
	// buckets[k] holds the readings of interval [ (base+k)*Δ, (base+k+1)*Δ ).
	buckets []bucket
	free    [][]dist.Reading // recycled chunk backings, sealed buckets' among them
	spare   [][]dist.Reading // a sealed bucket's emptied chunk list, for the next bucket
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

// bucket is one Δ-interval's buffered readings as a list of chunks, every
// chunk but the last full. Its first chunk is a recycled backing when the
// freelist has one, so an interval that fits it stays one chunk and seals
// without a copy.
type bucket struct {
	chunks [][]dist.Reading
	n      int // readings across the chunks
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
	sh.lateBefore = ckpt
	target := int(ckpt / interval)
	k := min(target-sh.base, len(sh.buckets))
	sh.base = max(sh.base, target)
	if k <= 0 {
		return nil
	}
	head := &sh.buckets[0]
	for _, b := range sh.buckets[1:k] {
		// Only reachable if a checkpoint was skipped, which the scheduler
		// never does; kept for safety.
		head.chunks = append(head.chunks, b.chunks...)
		head.n += b.n
	}
	due := sh.gatherLocked(head)
	sh.backlog -= len(due)
	clear(head.chunks)
	sh.spare = head.chunks[:0]
	n := copy(sh.buckets, sh.buckets[k:])
	clear(sh.buckets[n:])
	sh.buckets = sh.buckets[:n]
	return due
}

// gatherLocked returns a bucket's readings as one slice: its only chunk as
// is, or its chunks copied once into a free backing that fits them (a fresh
// one, with a quarter's headroom, when none does), the chunks then going
// back to the freelist. Caller holds mu.
func (sh *shard) gatherLocked(b *bucket) []dist.Reading {
	switch len(b.chunks) {
	case 0:
		return nil
	case 1:
		return b.chunks[0]
	}
	var due []dist.Reading
	for i, f := range sh.free {
		if cap(f) >= b.n {
			due = f
			sh.free = slices.Delete(sh.free, i, i+1)
			break
		}
	}
	if due == nil {
		due = make([]dist.Reading, 0, b.n+b.n/4)
	}
	for _, c := range b.chunks {
		due = append(due, c...)
		sh.recycleLocked(c)
	}
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

// bucketRunsLocked appends readings to their intervals' buckets, one bulk
// append per run of same-interval readings, and counts them into the
// backlog and stream time. Readings of intervals already sealed are
// skipped. Caller holds mu.
func (sh *shard) bucketRunsLocked(rs []dist.Reading, interval model.Epoch) {
	for i0 := 0; i0 < len(rs); {
		k := int(rs[i0].T/interval) - sh.base
		t := rs[i0].T
		i := i0 + 1
		for ; i < len(rs) && int(rs[i].T/interval)-sh.base == k; i++ {
			t = max(t, rs[i].T)
		}
		if k >= 0 {
			sh.appendLocked(k, rs[i0:i])
			sh.backlog += i - i0
			sh.maxT = max(sh.maxT, t)
		}
		i0 = i
	}
}

// appendLocked appends rs to bucket k: it fills the last chunk, then opens
// the next from the freelist or at the bucket's size (see minChunk). Caller
// holds mu.
func (sh *shard) appendLocked(k int, rs []dist.Reading) {
	for len(sh.buckets) <= k {
		sh.buckets = append(sh.buckets, bucket{chunks: sh.spare})
		sh.spare = nil
	}
	b := &sh.buckets[k]
	for len(rs) > 0 {
		last := len(b.chunks) - 1
		if last < 0 || len(b.chunks[last]) == cap(b.chunks[last]) {
			b.chunks = append(b.chunks, sh.chunkLocked(b.n))
			last++
		}
		c := b.chunks[last]
		m := min(cap(c)-len(c), len(rs))
		b.chunks[last] = append(c, rs[:m]...)
		b.n += m
		rs = rs[m:]
	}
}

// chunkLocked returns an empty chunk for a bucket holding n readings.
// Caller holds mu.
func (sh *shard) chunkLocked(n int) []dist.Reading {
	if k := len(sh.free); k > 0 {
		c := sh.free[k-1]
		sh.free = sh.free[:k-1]
		return c
	}
	return make([]dist.Reading, 0, min(max(n, minChunk), maxChunk))
}

// exportBufferedLocked flattens the stripe's future-interval buckets into
// one slice for a durable snapshot. Caller holds mu (the snapshot takes it
// together with the segment rotation, so the export and the WAL cut are
// one instant).
func (sh *shard) exportBufferedLocked() []dist.Reading {
	if sh.backlog == 0 {
		return nil
	}
	out := make([]dist.Reading, 0, sh.backlog)
	for _, b := range sh.buckets {
		for _, c := range b.chunks {
			out = append(out, c...)
		}
	}
	return out
}

// inject re-buckets recovered readings without touching the received/late
// counters — the snapshot's restored counters already account for them.
// Epoch-to-bucket routing re-derives from each reading's epoch, so the
// export order never needs to survive.
func (sh *shard) inject(rs []dist.Reading, interval model.Epoch) {
	sh.mu.Lock()
	sh.bucketRunsLocked(rs, interval)
	sh.mu.Unlock()
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
