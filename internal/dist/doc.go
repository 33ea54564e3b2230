// Package dist implements the distributed runtime of Section 4 as a
// multi-site cluster: one inference engine per site, an object naming
// service (ONS) tracking which site owns each object, and state migration
// between sites as objects move through the supply chain.
//
// Each site owns its rfinfer.Engine and (optionally) a continuous query
// engine over the site's inferred event stream. A departing object's
// inference state (collapsed weights or CR state, per the configured
// Strategy) plus its query pattern state travel to the destination as
// encoded bytes; the wire cost of every transfer is accounted per link
// (Table 5).
//
// There is one checkpoint schedule, the Feed's: every site ingests its
// interval's readings, the due departures migrate in global departure
// order on one goroutine, every site runs inference, then queries are fed
// and the sites scored. The per-site phases — and, nested inside them,
// every engine's per-object and per-container phases — run on one
// internal/workpool.Pool of Cluster.Workers workers, so the workers a
// skewed deployment's quiet sites leave idle help inside the busy site's
// inference. The phases touch only site-local state and everything
// cross-site happens between them in a fixed order, so the Result is
// bit-identical at every pool size; at a pool of one the schedule is the
// sequential reference (ReplaySequential) the tests compare against.
//
// The package offers two ways to drive a Cluster:
//
//   - OpenFeed returns an incremental Feed: departure events are pushed as
//     they arrive and AdvanceWith runs one Δ-interval checkpoint at a time
//     over the readings the caller hands it — the online path
//     internal/serve builds the rfidtrackd daemon on, its shards cutting
//     the intervals. OpenPartitionedFeed runs one peer's share of the
//     sites, with migrations crossing a Transport (see coord.go).
//   - Replay / ReplaySequential consume a whole pre-generated world at
//     once — the batch evaluation path of the paper's experiments — by
//     cutting it with Intervals and handing a Feed one interval at a time.
//
// The centralized baseline — shipping every raw reading to one server,
// gzip-compressed — is computed alongside for comparison.
package dist
