package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"rfidtrack/internal/dist"
	"rfidtrack/internal/model"
	"rfidtrack/internal/query"
	"rfidtrack/internal/rfinfer"
	"rfidtrack/internal/stream"
	"rfidtrack/internal/wal"
	"rfidtrack/internal/workpool"
)

// ErrClosed is returned by Ingest and Drain after Shutdown has begun.
var ErrClosed = errors.New("serve: server is shut down")

// Config tunes a Server. The zero value is usable: Δ = 300 s of stream
// time (the paper's re-inference interval) and an 8192-reading per-shard
// backlog bound.
type Config struct {
	// Interval is Δ, the stream-time gap between inference checkpoints.
	// Default 300, the paper's deployed re-inference period.
	Interval model.Epoch
	// Horizon, when positive, is the last stream epoch the deployment
	// covers: events at or past it are rejected, and Drain and Shutdown
	// advance checkpoints through it exactly like a Replay over a world
	// with Epochs = Horizon — except that trailing intervals past the
	// last streamed reading, which observe nothing, are skipped. When
	// zero the final drain likewise stops after the interval containing
	// the last streamed reading.
	Horizon model.Epoch
	// QueueSize bounds each per-site ingest shard's backlog of buffered
	// readings while a checkpoint is due or running: producers that hit
	// the bound block until the checkpoint completes — backpressure, never
	// loss. While no checkpoint is pending, ingestion never blocks (the
	// producers themselves are what move stream time forward, so blocking
	// them could make no progress). Default 8192.
	QueueSize int
	// MaxSkip bounds how many Δ-intervals ahead of the next checkpoint an
	// event may be when no Horizon is configured (default 1024). Events
	// further ahead are rejected as invalid: without this bound one
	// far-future epoch would force the scheduler through millions of
	// empty checkpoints in a single batch. Irrelevant when Horizon > 0,
	// which bounds stream time directly.
	MaxSkip int
	// Watermark delays each checkpoint until stream time has passed it by
	// this many epochs, tolerating skew between concurrent producers: with
	// several readers posting independently, one reader's t=600 reading
	// would otherwise close checkpoint 600 while another reader's
	// t=580..599 batch is still in flight (those arrivals are then counted
	// late and dropped). A watermark of one Δ absorbs any skew below one
	// interval. Default 0: a single time-ordered producer needs none, and
	// alerts fire one interval sooner.
	Watermark model.Epoch
	// Workers is the total CPU budget of a checkpoint
	// (dist.Cluster.Workers): the size of the one worker pool the scheduler
	// runs site loops on and every site engine runs its phases on, for the
	// server's lifetime. Ingestion, delivery and the WAL are outside it.
	// 0 uses GOMAXPROCS. Results are bit-identical at every setting.
	Workers int
	// Query optionally attaches per-site continuous queries; their matches
	// flow to Subscribe channels and the HTTP alert feeds.
	Query *dist.ClusterQuery

	// DataDir enables durable state: accepted events append to a per-site
	// write-ahead log and full-state snapshots commit at Δ-checkpoint
	// boundaries, so New over a non-empty directory recovers the exact
	// pre-crash state (see internal/wal and OPERATIONS.md). Empty keeps
	// the runtime memory-only.
	DataDir string
	// SyncEvery is the WAL group-fsync cadence (default 100ms; <0
	// disables the timer — checkpoints and shutdown still sync).
	SyncEvery time.Duration
	// Strict gates every ingest acknowledgement on an fsync: an
	// acknowledged event can never be lost to a crash. Group commit
	// amortizes the cost across concurrent producers.
	Strict bool
	// SnapshotEvery is how many checkpoints run between automatic durable
	// snapshots (default 16; <0 disables periodic snapshots — manual
	// POST /snapshot and the shutdown snapshot still work). Snapshots
	// bound both recovery time and disk usage: committing one retires all
	// older WAL segments.
	SnapshotEvery int

	// Peers, when it lists more than one URL, splits the cluster across
	// processes: entry i is daemon i's base URL, and this daemon runs the
	// partitioned feed over the sites SiteOwner assigns it. Readings for
	// non-owned sites are rejected (route them to their owner); departures
	// must be broadcast to every peer — the shared global departure order
	// is the cluster's only coordination (see internal/dist/coord.go).
	// Empty or single-entry keeps the daemon a whole-cluster runtime.
	Peers []string
	// Self is this daemon's index into Peers.
	Self int
	// SiteOwner maps each site to its owning peer; nil uses
	// dist.DefaultSiteMap's contiguous blocks. Every peer must own at
	// least one site and all peers must be started with identical maps.
	SiteOwner []int
	// PeerRetryWindow bounds how long a migration Send retries against an
	// unreachable peer and how long a checkpoint's Recv waits for a
	// payload (default 2m). A peer that stays down past the window fails
	// the checkpoint and latches the pipeline unhealthy.
	PeerRetryWindow time.Duration
	// GossipInterval, when positive, runs the epoch-gossip liveness loop:
	// every interval this daemon exchanges {fence epoch, stream time, WAL
	// horizon} tables with one peer (round-robin), adopting the cluster's
	// maximum stream time so a peer whose own producers go quiet still
	// reaches the checkpoints where it must send or receive migrations
	// (see gossip.go). 0 (the default) disables the timer loop; the
	// /gossip endpoints still answer, so peers that do run the loop keep
	// this daemon's table fresh. Enabling it extends the producer-ordering
	// contract cluster-wide: stream time can now arrive from any peer, so
	// set a Watermark covering inter-producer skew (see OPERATIONS.md).
	GossipInterval time.Duration
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = 300
	}
	if c.QueueSize <= 0 {
		c.QueueSize = 8192
	}
	if c.MaxSkip <= 0 {
		c.MaxSkip = 1024
	}
	if c.SnapshotEvery == 0 {
		c.SnapshotEvery = 16
	}
	return c
}

// SchedStats reports the scheduler's checkpoint latency: the wall time
// feed.AdvanceWith spends ingesting an interval, migrating and running
// inference at every site. The per-phase breakdown (interval ingest,
// migration, inference, query/scoring tail) is in Stats.Feed.Phases.
type SchedStats struct {
	// Advances is the number of completed checkpoints.
	Advances int `json:"advances"`
	// Total, Max and Last are Advance wall times in nanoseconds.
	Total time.Duration `json:"total_ns"`
	Max   time.Duration `json:"max_ns"`
	Last  time.Duration `json:"last_ns"`
	// DirtySites, DirtyGroups and SkippedGroups accumulate the incremental
	// checkpoint engine's work profile across every completed checkpoint:
	// how many site-checkpoints carried any dirty tag, how many container
	// groups had their posterior recomputed, and how many were skipped
	// clean (posterior carried forward untouched). A mostly-idle deployment
	// shows SkippedGroups dwarfing DirtyGroups — that gap is the Δ in a
	// Δ-checkpoint.
	DirtySites    int `json:"dirty_sites"`
	DirtyGroups   int `json:"dirty_groups"`
	SkippedGroups int `json:"skipped_groups"`
	// Pool is the checkpoint worker pool's accounting. The scheduler
	// goroutine is busy for all of Total and the pool's helpers for
	// Pool.BusyNS, so checkpoints have used 1 + Pool.BusyNS ÷ Total cores
	// on average, of Pool.Workers available.
	Pool workpool.Stats `json:"pool"`
}

// Stats is the /stats payload: ingestion counters, feed state, per-shard
// ingest stripes, per-site cluster runtime counters, inference memo
// statistics, and scheduler latency.
type Stats struct {
	// Received counts events accepted into the ingest shards; Invalid
	// counts events rejected by validation (unknown site, tag, reader
	// bit...).
	Received int `json:"received"`
	Invalid  int `json:"invalid"`
	// LastInvalid describes the most recent validation rejection.
	LastInvalid string `json:"last_invalid,omitempty"`
	// BadFrames counts binary ingest frames refused whole (torn, corrupt,
	// oversized); their records are never applied and are not in Invalid.
	BadFrames int `json:"bad_frames,omitempty"`
	// UnsupportedMedia counts ingest requests refused with 415 for a wrong
	// Content-Type.
	UnsupportedMedia int `json:"unsupported_media,omitempty"`
	// StreamTime is the latest reading epoch seen; NextCheckpoint the next
	// epoch the scheduler will run inference at.
	StreamTime     model.Epoch `json:"stream_time"`
	NextCheckpoint model.Epoch `json:"next_checkpoint"`
	// Alerts is the number of continuous-query alerts published so far.
	Alerts int `json:"alerts"`
	// Delivery is the alert delivery tier's accounting: subscriber count,
	// per-shard match counts, queue depths, drops and consumer lag.
	Delivery DeliveryStats `json:"delivery"`
	// Feed is the incremental feed's ingestion counters (Late and Buffered
	// include the ingest shards' stripe-local counts).
	Feed dist.FeedStats `json:"feed"`
	// Shards is the per-site ingest stripe breakdown.
	Shards []ShardStats `json:"shards"`
	// Cluster is the per-site migration/checkpoint accounting.
	Cluster dist.ClusterStats `json:"cluster"`
	// Memo is each site engine's posterior-memoization counters.
	Memo []rfinfer.RunStats `json:"memo"`
	// Sched is the checkpoint latency accounting.
	Sched SchedStats `json:"sched"`
	// Err is the first pipeline error, if the feed has failed.
	Err string `json:"err,omitempty"`
	// WAL is the durable-state accounting (nil when DataDir is unset).
	WAL *wal.Stats `json:"wal,omitempty"`
	// Peers is the cluster transport accounting (nil when un-clustered).
	Peers *PeerStats `json:"peers,omitempty"`
	// Repl is the replication/standby accounting: shipping volume,
	// follower recency and the gossip table (nil when DataDir is unset).
	Repl *ReplStats `json:"repl,omitempty"`
}

// SiteSnapshot is one site's current inference estimates: the /snapshot
// payload.
type SiteSnapshot struct {
	Site int `json:"site"`
	// Now is the site's latest observed or inferred epoch.
	Now model.Epoch `json:"now"`
	// Containment maps each object to its estimated container.
	Containment map[model.TagID]model.TagID `json:"containment"`
	// Location maps each locatable object to its estimated reader location.
	Location map[model.TagID]model.Loc `json:"location"`
}

// drainCtl asks the scheduler to advance through an epoch and reply.
type drainCtl struct {
	through model.Epoch
	done    chan error
}

// Server is the online runtime around one dist.Cluster. Create it with
// New, feed it with Ingest / IngestBatch (or the HTTP Handler), and stop
// it with Shutdown.
//
// Ingestion is sharded per site: producers validate and interval-bucket
// their own readings under the owning stripe's lock, so N producers across
// N sites never contend. The scheduler goroutine owns the feed and is the
// only goroutine that mutates the cluster — which is what preserves the
// replay determinism contract — but it touches a reading exactly once, at
// its checkpoint: when stream time crosses a Δ boundary it seals the
// current interval's bucket on every stripe and hands the sealed buckets
// to Feed.AdvanceWith, while producers keep bucketing future intervals
// concurrently. Ingest latency is therefore independent of checkpoint
// latency.
type Server struct {
	cfg     Config
	cluster *dist.Cluster

	shards   []*shard
	alerts   *alertLog
	registry *registry
	// staged holds each site's current-checkpoint query matches, filled by
	// the per-site engine callbacks during AdvanceWith (the owning site's
	// goroutine is the only writer of its slice) and drained by the
	// scheduler in site order once AdvanceWith returns — which is what
	// makes the cross-site alert publication order, and therefore every
	// consumer cursor, deterministic across runs and crash recovery.
	staged [][]stagedMatch

	// peers and owner are set only in clustered mode
	// (len(Config.Peers) > 1); see peer.go.
	peers *peerSet
	owner []int

	closeMu  sync.RWMutex
	closed   bool
	ingestWG sync.WaitGroup

	notify    chan struct{} // "stream time may have crossed a boundary"
	ctl       chan *drainCtl
	quit      chan struct{}
	schedDone chan struct{}

	maxT     atomic.Int64 // global stream time (-1 until the first reading)
	dueAt    atomic.Int64 // stream time at which the next checkpoint is due
	nextCkpt atomic.Int64 // feed.Next(), for producer-side epoch bounds
	failed   atomic.Bool  // latched runErr, releases backpressure waiters

	invMu         sync.Mutex // guards the rejection counters
	invalid       int
	lastInv       string
	miscReceived  int // events not routed to any stripe (departures, junk)
	badFrames     int // binary frames refused whole
	unsupportedCT int // requests refused with 415

	depMu     sync.Mutex // guards the departure buffer
	deps      []dist.Departure
	depsSpare []dist.Departure // double buffer recycled by the scheduler

	wal       *wal.Log    // nil when DataDir is unset
	walOn     atomic.Bool // false while recovery replays the log
	replaying atomic.Bool // relaxes epoch bounds for already-accepted events
	walErrMu  sync.Mutex  // guards walErr
	walErr    error       // first WAL append/sync failure, latched

	// Gossip and fencing state (clustered only; see gossip.go).
	selfEpoch   atomic.Int64 // this daemon's fence epoch (persisted in FENCE)
	adopted     atomic.Int64 // stream-time advances adopted from gossip
	gossipMu    sync.Mutex   // guards the table, heard times and cursor
	gossipTab   []GossipEntry
	gossipHeard []time.Time
	gossipNext  int           // round-robin cursor
	gossipDone  chan struct{} // closed when the gossip loop exits; nil without one

	// Replication shipping counters (see repl.go).
	replShipped   atomic.Int64
	replLastBatch atomic.Int64
	replLastSub   atomic.Int64 // unix nanos of the last subscribe; 0 = never

	mu        sync.Mutex // guards the feed and everything below
	feed      *dist.Feed
	due       [][]dist.Reading // sealed per-site buckets, reused per checkpoint
	sched     SchedStats
	runErr    error
	sinceSnap int // checkpoints since the last durable snapshot
}

// New builds and starts a server over the cluster: it opens the cluster's
// incremental feed (resetting its runtime counters), builds one ingest
// shard per site, and launches the scheduler goroutine. The server takes
// over the cluster's Query and Workers wiring; the cluster must not be
// used concurrently by the caller until Shutdown returns.
func New(c *dist.Cluster, cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:       cfg,
		cluster:   c,
		notify:    make(chan struct{}, 1),
		ctl:       make(chan *drainCtl),
		quit:      make(chan struct{}),
		schedDone: make(chan struct{}),
		alerts:    newAlertLog(),
	}
	s.registry = newRegistry(s.alerts)
	s.staged = make([][]stagedMatch, len(c.World.Sites))
	if len(cfg.Peers) > 1 {
		if cfg.Self < 0 || cfg.Self >= len(cfg.Peers) {
			return nil, fmt.Errorf("serve: self index %d out of range for %d peers", cfg.Self, len(cfg.Peers))
		}
		owner := cfg.SiteOwner
		if owner == nil {
			owner = dist.DefaultSiteMap(len(c.World.Sites), len(cfg.Peers))
		}
		if len(owner) != len(c.World.Sites) {
			return nil, fmt.Errorf("serve: site map has %d entries, deployment has %d sites", len(owner), len(c.World.Sites))
		}
		seen := make([]bool, len(cfg.Peers))
		for site, p := range owner {
			if p < 0 || p >= len(cfg.Peers) {
				return nil, fmt.Errorf("serve: site %d assigned to peer %d, want [0,%d)", site, p, len(cfg.Peers))
			}
			seen[p] = true
		}
		for p, ok := range seen {
			if !ok {
				return nil, fmt.Errorf("serve: peer %d owns no sites", p)
			}
		}
		s.owner = owner
		s.peers = newPeerSet(cfg.Self, owner, cfg.Peers, cfg.PeerRetryWindow)
		fence := int64(0)
		if cfg.DataDir != "" {
			fe, ferr := wal.ReadFence(cfg.DataDir)
			if ferr != nil {
				return nil, ferr
			}
			fence = fe
		}
		s.initGossip(fence)
	}
	prevQuery, prevWorkers := c.Query, c.Workers
	c.Workers = cfg.Workers
	if q := cfg.Query; q != nil {
		c.Query = s.hookQuery(q)
	} else if c.Query != nil {
		c.Query = s.hookQuery(c.Query)
	}
	var feed *dist.Feed
	var err error
	if s.peers != nil {
		feed, err = c.OpenPartitionedFeed(cfg.Interval, dist.OwnedSites(s.owner, cfg.Self), s.peers)
	} else {
		feed, err = c.OpenFeed(cfg.Interval)
	}
	if err != nil {
		c.Query, c.Workers = prevQuery, prevWorkers
		return nil, err
	}
	s.feed = feed
	s.shards = make([]*shard, len(c.World.Sites))
	for site, tr := range c.World.Sites {
		kinds := make([]model.TagKind, len(tr.Tags))
		for i := range tr.Tags {
			kinds[i] = tr.Tags[i].Kind
		}
		s.shards[site] = newShard(site, len(tr.Readers), kinds)
	}
	s.due = make([][]dist.Reading, len(s.shards))
	s.maxT.Store(-1)
	s.nextCkpt.Store(int64(cfg.Interval))
	s.dueAt.Store(int64(cfg.Interval + cfg.Watermark))
	if cfg.DataDir != "" {
		// Recover before the scheduler starts: the snapshot restores the
		// checkpointed prefix, the WAL tail re-ingests through the normal
		// path with checkpoints suppressed, and the scheduler then catches
		// up every owed checkpoint — in the same stream-time order an
		// uninterrupted run would have used.
		if err := s.recover(); err != nil {
			if s.wal != nil {
				s.wal.Close()
			}
			_ = feed.Close() // releases the worker pool; the recovery error is the one to report
			c.Query, c.Workers = prevQuery, prevWorkers
			return nil, err
		}
	}
	go s.scheduler()
	if s.peers != nil && cfg.GossipInterval > 0 {
		s.gossipDone = make(chan struct{})
		go s.gossipLoop()
	}
	if s.checkpointDue() {
		select {
		case s.notify <- struct{}{}:
		default:
		}
	}
	return s, nil
}

// stagedMatch is one query match awaiting deterministic publication at
// the end of its checkpoint.
type stagedMatch struct {
	pattern string
	m       stream.Match
}

// hookQuery wraps a ClusterQuery so every per-site engine stages its
// matches the moment a pattern fires. Staging — not publishing — from the
// callback matters twice over: ClusterQuery guarantees each site's
// callback fires only from that site's checkpoint goroutine, so the
// per-site slice needs no lock, and deferring publication to the
// scheduler's site-ordered drain (runCheckpointLocked) pins the global
// alert sequence regardless of how the parallel site fan-out interleaves.
func (s *Server) hookQuery(q *dist.ClusterQuery) *dist.ClusterQuery {
	return &dist.ClusterQuery{
		New: func(site int) *query.Engine {
			eng := q.New(site)
			key := eng.PatternKey()
			eng.SetOnMatch(func(m stream.Match) {
				s.staged[site] = append(s.staged[site], stagedMatch{pattern: key, m: m})
			})
			return eng
		},
		Feed: q.Feed,
	}
}

// publishAlert appends one staged match to the alert log, mirrors it into
// the WAL's alert segment (the durable half of consumer cursors), and
// fans it out through the subscription registry. Recovery's catch-up
// checkpoints re-fire matches the WAL tail already restored; those come
// back non-fresh and are neither re-logged nor re-dispatched.
func (s *Server) publishAlert(site int, pattern string, m stream.Match) {
	a, fresh := s.alerts.publish(site, pattern, m)
	if !fresh {
		return
	}
	if s.wal != nil && s.walOn.Load() {
		if err := s.wal.AppendAlert(a); err != nil {
			s.walFail(err)
		}
	}
	s.registry.dispatch(a)
}

// Drain blocks until every event ingested before it has been applied and
// every checkpoint at or before through — clamped to the horizon
// (Config.Horizon, else the interval containing the last streamed
// reading) — has run, including any checkpoint the watermark rule already
// owes. Past the horizon there is no data to checkpoint, so an oversized
// through cannot spin the scheduler; through == 0 drains to the horizon
// itself.
func (s *Server) Drain(through model.Epoch) error {
	if err := s.beginIngest(); err != nil {
		return err
	}
	defer s.ingestWG.Done()
	ctl := &drainCtl{through: through, done: make(chan error, 1)}
	s.ctl <- ctl
	return <-ctl.done
}

// Shutdown stops ingestion, waits out in-flight producers, runs the
// remaining checkpoints through the horizon, finalizes the Result, and
// closes all alert subscriptions. It is the SIGINT/SIGTERM path of
// rfidtrackd: after it returns no accepted reading is unaccounted for.
// ctx bounds the final drain; on expiry the remaining checkpoints are
// abandoned and ctx.Err() returned (the Result still reflects every
// completed checkpoint).
func (s *Server) Shutdown(ctx context.Context) error {
	if err := s.stopIntake(); err != nil {
		return err
	}
	s.mu.Lock()
	var err error
	for s.feed.Next() <= s.horizon() && s.runErr == nil {
		select {
		case <-ctx.Done():
			err = ctx.Err()
		default:
			s.runCheckpointLocked()
		}
		if err != nil {
			break
		}
	}
	// Final durable snapshot: a drained daemon restarts by loading state
	// only, with an empty WAL tail to replay.
	if s.wal != nil && err == nil && s.runErr == nil {
		if serr := s.snapshotLocked(); serr != nil {
			err = serr
		}
	}
	if cerr := s.feed.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = s.runErr
	}
	s.mu.Unlock()
	// finish, not close: a graceful shutdown means the alert sequence is
	// complete, so following clients see Done instead of reconnecting.
	s.alerts.finish()
	s.wakeAndClosePeers()
	if s.wal != nil {
		if cerr := s.wal.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Abort is the crash-consistent stop: it halts ingestion and the
// scheduler without draining pending checkpoints and without a final
// snapshot, flushes the WAL, and closes the data directory. The state a
// subsequent New over the same DataDir recovers is exactly what a power
// loss at this instant would have left (modulo the flush, which a real
// crash gets only from Strict mode or the group-fsync timer). It exists
// for recovery tests and the examples/recovery walkthrough; production
// shutdown is Shutdown.
func (s *Server) Abort() error {
	if err := s.stopIntake(); err != nil {
		return err
	}
	s.mu.Lock()
	_ = s.feed.Close() // cannot fail: s.closed admits one closer
	s.mu.Unlock()
	// close, not finish: the crash-stop leaves the alert sequence
	// extendable by a restarted daemon, so clients resume, not stop.
	s.alerts.close()
	s.wakeAndClosePeers()
	if s.wal != nil {
		err := s.wal.Commit()
		if cerr := s.wal.Close(); err == nil {
			err = cerr
		}
		return err
	}
	return nil
}

// stopIntake is the first half of both stops: refuse new producers, wait
// out the admitted ones (every accepted event is bucketed), and stop the
// scheduler and the gossip loop. It returns ErrClosed to all but the
// first caller.
func (s *Server) stopIntake() error {
	s.closeMu.Lock()
	if s.closed {
		s.closeMu.Unlock()
		return ErrClosed
	}
	s.closed = true
	s.closeMu.Unlock()

	s.ingestWG.Wait()
	close(s.quit)
	<-s.schedDone
	if s.gossipDone != nil {
		<-s.gossipDone
	}
	return nil
}

// wakeAndClosePeers follows the alert log's finish or close: every
// subscriber wakes to see it, and the peer links close.
func (s *Server) wakeAndClosePeers() {
	s.registry.wakeAll()
	if s.peers != nil {
		s.peers.close()
	}
}

// scheduler is the goroutine that owns the feed: it runs checkpoints when
// producers report stream time crossing a Δ boundary, and serves Drain
// barriers. It holds s.mu during a checkpoint — but never any shard lock
// beyond the O(1) seal/recycle steps, which is what keeps ingestion
// running while inference does.
func (s *Server) scheduler() {
	defer close(s.schedDone)
	for {
		select {
		case <-s.notify:
			s.mu.Lock()
			s.runDueLocked()
			s.mu.Unlock()
		case ctl := <-s.ctl:
			s.mu.Lock()
			s.runDueLocked()
			through := ctl.through
			if h := s.horizon(); through == 0 || through > h {
				through = h
			}
			for s.feed.Next() <= through && s.runErr == nil {
				s.runCheckpointLocked()
			}
			err := s.runErr
			s.mu.Unlock()
			ctl.done <- err
		case <-s.quit:
			return
		}
	}
}

// runDueLocked runs every checkpoint the watermark rule owes at the
// current stream time. Caller holds mu.
func (s *Server) runDueLocked() {
	for s.runErr == nil && model.Epoch(s.maxT.Load()) >= s.feed.Next()+s.cfg.Watermark {
		s.runCheckpointLocked()
	}
}

// runCheckpointLocked runs one checkpoint: seal the current interval's
// bucket on every stripe (from this instant producers bucket only future
// intervals, concurrently), flush buffered departures into the feed, run
// AdvanceWith over the sealed buckets, then recycle them and wake any
// backpressured producers. Caller holds mu. A feed error is latched into
// runErr; the server stops advancing but keeps serving stats and
// snapshots so the failure is observable.
func (s *Server) runCheckpointLocked() {
	ckpt := s.feed.Next()
	for i, sh := range s.shards {
		s.due[i] = sh.seal(ckpt, s.cfg.Interval)
	}

	s.depMu.Lock()
	deps := s.deps
	s.deps = s.depsSpare[:0]
	s.depMu.Unlock()
	var depErr error
	for _, d := range deps {
		if err := s.feed.Depart(d); err != nil && depErr == nil {
			depErr = err // unreachable: departures are pre-validated
		}
	}
	s.depsSpare = deps[:0]

	start := time.Now()
	err := s.feed.AdvanceWith(s.due)
	d := time.Since(start)
	s.sched.Advances++
	s.sched.Total += d
	s.sched.Last = d
	if d > s.sched.Max {
		s.sched.Max = d
	}
	if err == nil {
		err = depErr
	}
	if err != nil && s.runErr == nil {
		s.runErr = err
		s.failed.Store(true)
	}

	// Fold this checkpoint's incremental-work profile into the scheduler
	// counters. Every owned engine just ran, so its RunStats describe
	// exactly this checkpoint; unowned (peer) engines never run and
	// contribute zeros.
	for _, eng := range s.cluster.Engines {
		es := eng.Stats()
		if es.DirtyTags > 0 || es.GroupsDirty > 0 {
			s.sched.DirtySites++
		}
		s.sched.DirtyGroups += es.GroupsDirty
		s.sched.SkippedGroups += es.PosteriorsSkipped
	}

	// Publish this checkpoint's staged matches in site order; see the
	// staged field for why this ordering is the determinism anchor.
	for site := range s.staged {
		for _, sm := range s.staged[site] {
			s.publishAlert(site, sm.pattern, sm.m)
		}
		s.staged[site] = s.staged[site][:0]
	}

	next := s.feed.Next()
	s.nextCkpt.Store(int64(next))
	s.dueAt.Store(int64(next + s.cfg.Watermark))
	if s.peers != nil {
		// Duplicate deposits that raced the consuming checkpoint are now
		// provably stale; drop them so the inbox stays bounded.
		s.peers.prune(next, s.cfg.Interval)
	}
	for i, sh := range s.shards {
		sh.recycle(s.due[i])
		s.due[i] = nil
	}

	// Periodic durable snapshot: every SnapshotEvery-th checkpoint
	// boundary commits full state and retires the WAL written before it,
	// bounding both recovery time and disk usage.
	if s.wal != nil && s.runErr == nil {
		s.sinceSnap++
		if s.cfg.SnapshotEvery > 0 && s.sinceSnap >= s.cfg.SnapshotEvery {
			if err := s.snapshotLocked(); err != nil {
				s.walFail(err)
			}
		}
	}
}

// epochBound returns the highest epoch (exclusive) an event may carry and
// what the bound is ("horizon" or "stream-time skip bound"). With a
// Horizon, later events could never be observed; without one, the MaxSkip
// bound stops a single far-future epoch from dragging the scheduler
// through millions of empty checkpoints.
func (s *Server) epochBound() (model.Epoch, string) {
	if s.replaying.Load() {
		// Recovery replays only events this server already accepted; the
		// live bound was enforced then, and re-checking it against the
		// suppressed checkpoint clock would reject valid history.
		return dist.MaxEpoch, "recovery replay bound"
	}
	if s.cfg.Horizon > 0 {
		return s.cfg.Horizon, "horizon"
	}
	bound := s.nextCkpt.Load() + int64(s.cfg.MaxSkip)*int64(s.cfg.Interval)
	if bound > int64(dist.MaxEpoch) {
		return dist.MaxEpoch, "stream-time skip bound"
	}
	return model.Epoch(bound), "stream-time skip bound"
}

// horizon resolves the final-drain horizon: the interval containing the
// last streamed reading, additionally capped by Config.Horizon. Trailing
// intervals past the data observe nothing, so draining through a distant
// Horizon would only spin empty checkpoints (with a Horizon near
// MaxEpoch, millions of them on Shutdown).
func (s *Server) horizon() model.Epoch {
	maxT := s.maxT.Load()
	if maxT < 0 {
		return 0
	}
	data := (model.Epoch(maxT)/s.cfg.Interval + 1) * s.cfg.Interval
	if s.cfg.Horizon > 0 && s.cfg.Horizon < data {
		return s.cfg.Horizon
	}
	return data
}

// Result snapshots the accumulated replay result, in the exact shape
// Cluster.ReplaySequential returns for the same stream. After Shutdown or
// Abort it reads the closed feed: the final, immutable result.
func (s *Server) Result() dist.Result {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.feed.Result()
}

// Stats reports the server's ingestion, shard, cluster, memo and scheduler
// counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	st := Stats{
		NextCheckpoint: s.feed.Next(),
		Feed:           s.feed.Stats(),
		Cluster:        s.cluster.Stats(),
		Sched:          s.sched,
	}
	st.Sched.Pool = s.feed.PoolStats()
	for _, eng := range s.cluster.Engines {
		st.Memo = append(st.Memo, eng.Stats())
	}
	if s.runErr != nil {
		st.Err = s.runErr.Error()
	}
	s.mu.Unlock()
	if st.Err == "" {
		s.walErrMu.Lock()
		if s.walErr != nil {
			st.Err = s.walErr.Error()
		}
		s.walErrMu.Unlock()
	}
	if s.wal != nil {
		ws := s.wal.Stats()
		st.WAL = &ws
		rs := s.replStats()
		st.Repl = &rs
	}
	if s.peers != nil {
		ps := s.peers.stats()
		st.Peers = &ps
	}

	st.Shards = make([]ShardStats, len(s.shards))
	for i, sh := range s.shards {
		ss := sh.stats()
		st.Shards[i] = ss
		st.Received += ss.Received
		st.Feed.Late += ss.Late
		st.Feed.Buffered += ss.Buffered
	}
	s.invMu.Lock()
	st.Received += s.miscReceived
	st.Invalid = s.invalid
	st.LastInvalid = s.lastInv
	st.BadFrames = s.badFrames
	st.UnsupportedMedia = s.unsupportedCT
	s.invMu.Unlock()
	s.depMu.Lock()
	st.Feed.PendingDepartures += len(s.deps)
	s.depMu.Unlock()
	if maxT := s.maxT.Load(); maxT > 0 {
		st.StreamTime = model.Epoch(maxT)
	}
	st.Alerts = s.alerts.len()
	st.Delivery = s.registry.stats()
	return st
}

// Healthy reports whether the pipeline is running without a feed error.
func (s *Server) Healthy() bool {
	return !s.failed.Load()
}

// Snapshot returns site s's current containment and location estimates.
func (s *Server) Snapshot(site int) (SiteSnapshot, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if site < 0 || site >= len(s.cluster.Engines) {
		return SiteSnapshot{}, fmt.Errorf("serve: site %d out of range [0,%d)", site, len(s.cluster.Engines))
	}
	eng := s.cluster.Engines[site]
	now := eng.Now()
	snap := SiteSnapshot{
		Site:        site,
		Now:         now,
		Containment: eng.Containment(),
		Location:    make(map[model.TagID]model.Loc),
	}
	for _, id := range eng.Objects() {
		if loc := eng.LocationAt(id, now); loc != model.NoLoc {
			snap.Location[id] = loc
		}
	}
	return snap, nil
}

// Subscribe registers a channel-mode subscriber over every alert from the
// log's beginning; see Subscription.
func (s *Server) Subscribe() *Subscription {
	return s.registry.subscribeChannel(MatchAll(), 0)
}

// SubscribeFilter registers a channel-mode subscriber over the alerts
// matching f, from the log's beginning.
func (s *Server) SubscribeFilter(f Filter) *Subscription {
	return s.registry.subscribeChannel(f, 0)
}

// SubscribeCursor registers a cursor-mode subscriber: alerts matching f
// from log position cursor onward, read with Subscription.Poll. It is the
// in-process twin of the HTTP cursor long-poll — a reconnecting consumer
// passes its last Subscription.Cursor and misses nothing.
func (s *Server) SubscribeCursor(f Filter, cursor int) *Subscription {
	return &Subscription{sub: s.registry.register(f, cursor)}
}

// PollAlerts is the one-shot cursor long-poll behind GET /alerts: it
// returns up to max alerts matching f from position cursor, waiting up to
// wait when none are available, along with the next cursor (the position
// the caller resumes from) and whether delivery is finished (graceful
// shutdown with everything consumed).
func (s *Server) PollAlerts(f Filter, cursor, max int, wait time.Duration) (alerts []Alert, next int, done bool) {
	return s.readAlerts(context.TODO(), f, cursor, max, wait)
}

// AlertsSince returns the alerts with Seq >= since, waiting up to wait for
// one to arrive when none is available yet (the legacy long-poll
// primitive; cursor-aware consumers use PollAlerts).
func (s *Server) AlertsSince(since int, wait time.Duration) []Alert {
	return s.alertsSince(context.TODO(), since, wait)
}

// alertsSince is AlertsSince whose wait also ends with ctx: GET /alerts
// passes the request's, so a client that hangs up mid-wait frees its
// handler and subscriber at once.
func (s *Server) alertsSince(ctx context.Context, since int, wait time.Duration) []Alert {
	if wait > 0 {
		s.readAlerts(ctx, MatchAll(), since, 1, wait)
	}
	return s.alerts.since(since)
}

// readAlerts is the one consumer read: a subscriber registered at from
// polls up to max alerts matching f, waiting up to wait (or until ctx
// ends, which fails the wait at once), then detaches. next is the
// position to resume from. done is true only when the log was finished
// by a graceful shutdown and everything was consumed: a crash-stop close
// ends the read but not the sequence, which a restarted daemon continues.
func (s *Server) readAlerts(ctx context.Context, f Filter, from, max int, wait time.Duration) (alerts []Alert, next int, done bool) {
	sub := s.registry.register(f, from)
	defer sub.shutdown()
	stop := context.AfterFunc(ctx, sub.shutdown)
	defer stop()
	alerts, done = sub.poll(max, wait)
	return alerts, sub.cursor(), done && s.alerts.isFinished()
}
