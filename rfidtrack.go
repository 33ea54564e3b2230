// Package rfidtrack is a distributed stream-processing library for RFID
// tracking and monitoring, reproducing Cao, Sutton, Diao & Shenoy,
// "Distributed Inference and Query Processing for RFID Tracking and
// Monitoring", PVLDB 4(5), 2011.
//
// The library combines probabilistic location and containment inference
// (the RFINFER EM algorithm, with change-point detection and critical-region
// history truncation) with CQL-style continuous query processing, and scales
// both across sites via state migration.
//
// # Quick start
//
//	cfg := rfidtrack.DefaultSimConfig()          // or feed your own readings
//	world, _ := rfidtrack.Simulate(cfg)
//	tr := world.Single()
//	eng := rfidtrack.NewEngine(tr.Likelihood(), rfidtrack.DefaultInferConfig())
//	// register tags, Observe readings, then:
//	eng.Run(now)
//	container := eng.Container(itemID)
//	loc := eng.LocationAt(itemID, now)
//
// The subsystems live in internal packages and are re-exported here:
//
//   - inference engine (internal/rfinfer): RFINFER, change points, critical
//     regions, collapsed state migration
//   - observation model (internal/model): read-rate tables, reader
//     schedules, likelihoods
//   - supply-chain simulator (internal/sim): the paper's workload generator
//     and lab traces T1-T8
//   - stream processing (internal/stream, internal/query): operators, SEQ
//     pattern matching, queries Q1/Q2, centroid state sharing
//   - distributed runtime (internal/dist): sites, ONS, migration strategies
//   - online service (internal/serve): the rfidtrackd streaming daemon —
//     bounded-queue ingestion, Δ-interval scheduling, alert subscriptions
//   - baseline (internal/smurf): SMURF* for comparison
//
// See README.md for a tour and ARCHITECTURE.md for the dataflow and the
// determinism argument.
package rfidtrack

import (
	"rfidtrack/internal/changepoint"
	"rfidtrack/internal/dist"
	"rfidtrack/internal/metrics"
	"rfidtrack/internal/model"
	"rfidtrack/internal/query"
	"rfidtrack/internal/rfinfer"
	"rfidtrack/internal/serve"
	"rfidtrack/internal/sim"
	"rfidtrack/internal/smurf"
	"rfidtrack/internal/stream"
	"rfidtrack/internal/trace"
	"rfidtrack/internal/wal"
)

// Core identifier and time types.
type (
	// TagID identifies a tagged object (item, case, or pallet).
	TagID = model.TagID
	// Epoch is a discrete second of simulated or wall time.
	Epoch = model.Epoch
	// Loc indexes a reader location within a site.
	Loc = model.Loc
	// Mask records which readers detected a tag in one epoch.
	Mask = model.Mask
	// TagKind classifies tags by packaging level.
	TagKind = model.TagKind
)

// Observation-model types.
type (
	// ReadRates is the per-scan read-rate table pi(r, a).
	ReadRates = model.ReadRates
	// Schedule records when each reader interrogates.
	Schedule = model.Schedule
	// Likelihood is the combined observation model.
	Likelihood = model.Likelihood
	// Series is a tag's reading history.
	Series = model.Series
	// Reading is one epoch's observation mask.
	Reading = model.Reading
)

// NoLoc marks an unknown location.
const NoLoc = model.NoLoc

// Tag kinds.
const (
	KindItem   = model.KindItem
	KindCase   = model.KindCase
	KindPallet = model.KindPallet
)

// Trace types.
type (
	// Trace is a site's readings plus ground truth.
	Trace = trace.Trace
	// TraceTag is one tag within a trace.
	TraceTag = trace.Tag
	// Reader describes a reader location.
	Reader = trace.Reader
)

// Inference types.
type (
	// Engine is the RFINFER inference engine.
	Engine = rfinfer.Engine
	// InferConfig tunes the engine.
	InferConfig = rfinfer.Config
	// Detection is a detected containment change point.
	Detection = rfinfer.Detection
	// Event is one inferred object event (time, tag, location, container).
	Event = rfinfer.Event
	// CollapsedState is the weights-only migrated inference state.
	CollapsedState = rfinfer.CollapsedState
	// CRState is the critical-region migrated inference state.
	CRState = rfinfer.CRState
)

// History-truncation strategies.
const (
	TruncateCR     = rfinfer.TruncateCR
	TruncateNone   = rfinfer.TruncateNone
	TruncateWindow = rfinfer.TruncateWindow
)

// Simulation types.
type (
	// SimConfig holds the workload parameters of the paper's Table 2.
	SimConfig = sim.Config
	// World is a simulated multi-site deployment with ground truth.
	World = sim.World
	// LabTraceParams describes one of the lab traces T1-T8.
	LabTraceParams = sim.LabTraceParams
)

// Stream and query types.
type (
	// Tuple is a stream element.
	Tuple = stream.Tuple
	// SeqPattern is the SEQ(A+) pattern operator.
	SeqPattern = stream.SeqPattern
	// Match is an emitted pattern match.
	Match = stream.Match
	// QueryConfig parameterizes an exposure query (Q1/Q2).
	QueryConfig = query.Config
	// Query is a running exposure query.
	Query = query.Engine
	// SlidingWindow is a CQL "[Range N]" window per partition.
	SlidingWindow = stream.SlidingWindow
	// Aggregate computes windowed per-partition aggregates.
	Aggregate = stream.Aggregate
)

// NewSlidingWindow returns an empty partitioned time window.
func NewSlidingWindow(rng Epoch, key func(Tuple) int64) *SlidingWindow {
	return stream.NewSlidingWindow(rng, key)
}

// Distributed runtime types.
type (
	// Cluster is a multi-site deployment of engines: one per site, state
	// migrating with departing objects, checkpoints fanned out over one
	// worker pool, bit-deterministic at every pool size.
	Cluster = dist.Cluster
	// Strategy selects the state-migration method.
	Strategy = dist.Strategy
	// ONS is the sharded, mutex-free object naming service.
	ONS = dist.ONS
	// ClusterQuery attaches per-site continuous queries whose pattern state
	// migrates with departing objects.
	ClusterQuery = dist.ClusterQuery
	// ClusterStats reports per-site runtime counters of a Replay.
	ClusterStats = dist.ClusterStats
	// SiteStats is one site's share of ClusterStats.
	SiteStats = dist.SiteStats
	// LinkCost is the migration traffic of one directed inter-site link.
	LinkCost = dist.LinkCost
)

// Migration strategies.
const (
	MigrateNone     = dist.MigrateNone
	MigrateWeights  = dist.MigrateWeights
	MigrateReadings = dist.MigrateReadings
	MigrateFull     = dist.MigrateFull
)

// Online-runtime types (internal/serve): the rfidtrackd daemon as a
// library.
type (
	// Server is the online streaming runtime around a Cluster: bounded-queue
	// ingestion, Δ-interval scheduling, continuous-query alert feeds, and an
	// HTTP front end. Results are bit-identical to ReplaySequential on the
	// same stream.
	Server = serve.Server
	// ServeConfig tunes a Server (Δ interval, horizon, queue depth, workers,
	// attached queries).
	ServeConfig = serve.Config
	// ServeEvent is one ingestion-stream element: a reading or a departure.
	ServeEvent = serve.Event
	// ServeStats is the server's ingestion/cluster/scheduler counters.
	ServeStats = serve.Stats
	// Alert is one continuous-query match published to subscribers.
	Alert = serve.Alert
	// AlertSubscription delivers alerts in publication order on its C channel.
	AlertSubscription = serve.Subscription
	// ServeClient is a minimal HTTP client for a running rfidtrackd.
	ServeClient = serve.Client
	// Departure reports an object leaving one site for another; feeding it
	// to a Server (or Feed) triggers state migration.
	Departure = dist.Departure
	// Feed is the incremental checkpoint interface of a Cluster, the layer
	// Server builds on: it holds departures, not readings, and runs one
	// Δ-interval checkpoint per AdvanceWith over the per-site batches the
	// caller hands it.
	Feed = dist.Feed
	// FeedReading is one site-local reading in flight to a checkpoint: the
	// element type of Server.IngestBatch batches, of the sharded ingest
	// buckets and of the per-site batches Feed.AdvanceWith ingests.
	FeedReading = dist.Reading
	// WALManifest is a durable data directory's commit point (generation,
	// active snapshot, boundary), returned by Server.SnapshotNow.
	WALManifest = wal.Manifest
	// WALStats is the durable-state accounting exposed in ServeStats.WAL.
	WALStats = wal.Stats
)

// NewServer starts an online server over a cluster; see serve.New.
func NewServer(c *Cluster, cfg ServeConfig) (*Server, error) { return serve.New(c, cfg) }

// ColdChainQuery builds the canonical cold-chain demo query (the paper's
// Q1 over a fixed manufacturer database) — the same construction
// rfidtrackd serves and the determinism tests pin.
func ColdChainQuery(w *World, interval Epoch) *ClusterQuery {
	return dist.ColdChainQuery(w, interval)
}

// WorldEvents flattens a simulated world into the time-ordered event
// stream a Server ingests (readings plus the given departures).
func WorldEvents(w *World, deps []Departure) []ServeEvent { return serve.WorldEvents(w, deps) }

// ReadingEvent builds one ingestion reading event.
func ReadingEvent(site int, t Epoch, tag TagID, mask Mask) ServeEvent {
	return serve.Reading(site, t, tag, mask)
}

// DepartEvent builds one ingestion departure event.
func DepartEvent(d Departure) ServeEvent { return serve.Depart(d) }

// Metric types.
type (
	// ErrorCounts accumulates error-rate observations.
	ErrorCounts = metrics.Counts
	// PRF holds precision/recall/F-measure.
	PRF = metrics.PRF
)

// SMURFEngine is the SMURF* baseline of the paper's Appendix C.3.
type SMURFEngine = smurf.Engine

// NewEngine returns an RFINFER engine for a site with the given observation
// model.
func NewEngine(lik *Likelihood, cfg InferConfig) *Engine { return rfinfer.New(lik, cfg) }

// DefaultInferConfig returns the paper's inference defaults.
func DefaultInferConfig() InferConfig { return rfinfer.DefaultConfig() }

// NewReadRates builds a read-rate table from pi[r][a].
func NewReadRates(pi [][]float64) (*ReadRates, error) { return model.NewReadRates(pi) }

// NewSchedule builds a reader interrogation schedule.
func NewSchedule(cycle, readers int, scanning func(r, p int) bool) (*Schedule, error) {
	return model.NewSchedule(cycle, readers, scanning)
}

// AlwaysOn is the schedule where every reader scans every epoch.
func AlwaysOn(readers int) *Schedule { return model.AlwaysOn(readers) }

// NewLikelihood combines rates and a schedule into an observation model.
func NewLikelihood(rates *ReadRates, sched *Schedule) *Likelihood {
	return model.NewLikelihood(rates, sched)
}

// Simulate runs the supply-chain workload generator.
func Simulate(cfg SimConfig) (*World, error) { return sim.Generate(cfg) }

// DefaultSimConfig returns the paper's workload parameters at laptop scale.
func DefaultSimConfig() SimConfig { return sim.DefaultConfig() }

// LabTraces lists the eight lab traces of the paper's Appendix C.2.
func LabTraces() []LabTraceParams { return sim.LabTraces() }

// LabTrace generates one lab trace.
func LabTrace(p LabTraceParams, seed int64) (*Trace, *World, error) {
	return sim.LabTrace(p, seed)
}

// NewCluster builds a distributed deployment over a simulated world.
func NewCluster(w *World, strategy Strategy, cfg InferConfig) *Cluster {
	return dist.NewCluster(w, strategy, cfg)
}

// NewQuery builds an exposure query pipeline (see Q1Config / Q2Config).
func NewQuery(cfg QueryConfig, freezer func(TagID) bool) *Query { return query.New(cfg, freezer) }

// PathTracker answers the paper's tracking queries: compressed per-object
// location histories plus itinerary deviation alerts.
type PathTracker = query.PathTracker

// PathStep is one stop of a tracked object's history.
type PathStep = query.PathStep

// Deviation reports an object leaving its intended path.
type Deviation = query.Deviation

// NewPathTracker returns an empty tracking-query operator.
func NewPathTracker() *PathTracker { return query.NewPathTracker() }

// Q1Config returns the paper's hybrid query Q1 (location + containment).
func Q1Config(duration, snapshotInterval Epoch) QueryConfig {
	return query.Q1Config(duration, snapshotInterval)
}

// Q2Config returns the paper's query Q2 (location only).
func Q2Config(duration, snapshotInterval Epoch) QueryConfig {
	return query.Q2Config(duration, snapshotInterval)
}

// NewSMURF returns the SMURF* baseline engine.
func NewSMURF(lik *Likelihood, cfg smurf.Config) *SMURFEngine { return smurf.New(lik, cfg) }

// DefaultSMURFConfig returns the baseline's defaults.
func DefaultSMURFConfig() smurf.Config { return smurf.DefaultConfig() }

// ChooseThreshold samples the change-point threshold δ from the generative
// model (Section 3.3).
func ChooseThreshold(lik *Likelihood, cfg changepoint.ThresholdConfig) float64 {
	return changepoint.ChooseThreshold(lik, cfg)
}

// FMeasure combines detection counts into precision/recall/F.
func FMeasure(tp, fp, fn int) PRF { return metrics.FMeasure(tp, fp, fn) }
