// Package dist implements the distributed runtime of Section 4 as a
// concurrent multi-site cluster: one inference engine per site, an object
// naming service (ONS) tracking which site owns each object, and state
// migration between sites as objects move through the supply chain.
//
// Each site is an actor owning its rfinfer.Engine and (optionally) a
// continuous query engine over the site's inferred event stream. A
// departing object's inference state (collapsed weights or CR state, per
// the configured Strategy) plus its query pattern state travel to the
// destination over an asynchronous migration channel as encoded bytes; the
// wire cost of every transfer is accounted per link (Table 5). Replay is
// epoch-pipelined: a site only waits for in-flight migrations targeting
// it, never on a global barrier, yet the Result is bit-identical to the
// sequential reference replay (see ReplaySequential and the e2e harness in
// e2e_test.go).
//
// All checkpoint CPU work — the loop over sites and, nested inside it,
// every engine's per-object and per-container phases — runs on one
// internal/workpool.Pool of Cluster.Workers workers, so the workers a
// skewed deployment's quiet sites leave idle help inside the busy site's
// inference.
//
// The package offers two ways to drive a Cluster:
//
//   - Replay / ReplaySequential consume a whole pre-generated world at
//     once — the batch evaluation path of the paper's experiments.
//   - OpenFeed returns an incremental Feed: readings and departure events
//     are pushed as they arrive and Advance runs one Δ-interval checkpoint
//     at a time — the online path internal/serve builds the rfidtrackd
//     daemon on. Both paths execute the same schedule and produce
//     bit-identical Results.
//
// The centralized baseline — shipping every raw reading to one server,
// gzip-compressed — is computed alongside for comparison.
package dist
