// Package serve wraps the dist cluster runtime in a production-style
// online service: the library's continuously-running deployment mode
// (paper Section 5.3) instead of the batch replay CLIs.
//
// A Server owns a dist.Cluster and its incremental dist.Feed. Ingestion
// is sharded per site: readings enter through Ingest / IngestBatch /
// IngestFrame (the in-process Go API) or the HTTP front end (Handler —
// JSON-lines /ingest, binary RFB1 frames on /ingest/bin).
// Every edge cuts its input into runs of one site's readings and hands
// them to the one ingest path (ingest.go), where the *ingesting*
// goroutine validates each reading against the deployment's
// site/reader/tag layout and buckets it into its site stripe's
// Δ-interval buckets under that stripe's lock. Producers on different
// sites never contend, and nothing funnels through a central queue.
// Backpressure is per stripe: while a checkpoint is pending, a full
// stripe blocks its producers until the checkpoint drains it — never
// loss.
//
// The scheduler goroutine owns the feed and is the only goroutine that
// mutates the cluster. When stream time crosses a checkpoint boundary
// (plus the configured watermark) it seals the current interval's bucket
// on every stripe — an O(1) pop per site — and hands the sealed buckets
// to Feed.AdvanceWith: ingest the interval's readings in (epoch, tag)
// order, apply migrations in global departure order, run per-site
// inference, feed the continuous queries, score. Checkpoints are
// pipelined against ingestion: readings for future intervals keep
// bucketing concurrently while a checkpoint runs, so ingest latency is
// independent of checkpoint latency (see BenchmarkIngestDuringCheckpoint).
// Because sealing fixes exactly which readings each checkpoint observes
// and the Feed executes the sequential reference schedule, a world
// streamed through a Server yields a Result bit-identical to
// Cluster.ReplaySequential on the same trace, at any Workers setting and
// any number of racing producers.
//
// Subscribers receive continuous-query alerts the moment a pattern fires,
// either through Subscribe (a channel fed from the append-only alert log)
// or over HTTP via long-polling GET /alerts and the SSE GET /alerts/stream
// feed. GET /stats, GET /healthz and GET /snapshot expose the per-stripe
// ingest counters, per-phase checkpoint latency, cluster runtime counters,
// inference memo statistics and per-site containment estimates. Shutdown
// waits out in-flight producers and runs the final checkpoints before
// returning, so no accepted reading is ever dropped (see the
// no-lost-readings tests).
package serve
