GO ?= go

.PHONY: build test vet race fuzz-smoke bench bench-hot bench-dist bench-serve bench-json bench-check bench-smoke bench-quick recover-smoke peer-smoke fanout-smoke failover-smoke soak docs-lint ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The checkpoint and the restart have one fan-out primitive,
# internal/workpool: the layers they run through (the restart's per-site
# replay and engine build included) start no worker goroutines of their
# own, and the three hand-rolled fan-outs it replaced stay gone. Likewise one checkpoint
# schedule (the Feed's phases) and one way for a reading to reach a stripe
# and the log (ingest.go's section path: bulk per admissible stretch, one
# WAL run record each): the pipelined replay, the fused scheduler, the
# per-edge and per-record ingest loops, the per-reading WAL append and the
# stripe's WAL staging buffer stay deleted. Inference looks its data up
# directly: the packed correction segments, the critical-region search's
# re-expansion of them and the hashed tag map stay deleted too. And it has
# one path: change-point detection reads the critical-region search's
# window table, so the evidence-matrix mode (its build, epoch union,
# candidate-union cache, mode switch and row views) stays deleted. The
# three network frames (RFB1, RFM1, RFS1) share one envelope: only
# internal/stream/envelope.go checks a magic, a length or a CRC, and the
# JSON /ingest/batch front door and the second RFB1 encoder stay deleted.
# The E-step memo has one key, the group plus the add floor: the content
# hashes (and Series.Version) and the dirty-bit carry beside them stay deleted.
# And an interval's readings reach a checkpoint one way, as AdvanceWith's
# per-site batches, cut by dist.Intervals for a replay and by the shards for
# the daemon: the Feed's own reading buffer (Observe, its pending intervals,
# AdvanceTo) and expt's globally sorted replay stream (FeedEvent) stay deleted.
# And the alert log is the delivery tier's only store: a subscriber is a
# filter plus a cursor into it, so the per-subscriber ring, its lagged
# switch back to the log, the finishPage rule for that switch, the
# SubQueue bound and the log's second wake mechanism (a sync.Cond) stay
# deleted from subs.go, fanout.go and registry.go.
# And the state formats have one field codec, model.Writer and model.Reader:
# the hand-rolled sticky writers and readers of trace, rfinfer, wal and
# stream, their two copies of the reading-series body and the ONS cache
# (every peer's ONS mirror is complete) stay deleted.
# And the WAL has one segment table: a site's segment and the shared
# departure, migration and alert segments are entries of wal.Log's segs,
# rotated by one Rotate and listed by one listSegments, so the per-kind
# Rotate methods, the Log's named shared-segment fields and the replay-only
# directory walk stay deleted from internal/wal and internal/serve.
# And a data directory holds one version of each durable format, reading
# runs and version-4 snapshots: the replay's per-reading record gathering
# and the snapshot decoder's version branches stay deleted from
# internal/wal, and the WAL record bodies are model.Writer fields, so
# internal/stream/wal.go writes and reads no varint of its own.
# And model.Writer only appends to a byte slice: every state encoder is an
# AppendX that cannot fail, so the io.Writer-backed writer and the
# bytes.Buffer wrappers that fed it stay out of the state codecs.
vet:
	$(GO) vet ./...
	@! grep -n 'go func\|forEachSite\|forSites\|newSemaphore' internal/rfinfer/*.go internal/dist/*.go internal/serve/server.go internal/serve/durable.go internal/wal/log.go \
		| grep -v '_test.go:' || { echo "checkpoint fan-out outside internal/workpool (see above)"; exit 1; }
	@! grep -n 'replayPipelined\|siteRunner\|buildPlan\|advanceFused\|checkpointOrder' internal/dist/*.go \
		|| { echo "a retired checkpoint schedule is back in internal/dist (see above)"; exit 1; }
	@! grep -n 'crBlock\|evEpochs\|sortContReads\|contReads2\|epochHist' internal/rfinfer/*.go | grep -v '_test.go:' \
		|| { echo "the four-cursor critical-region scan or the unindexed co-occurrence flatten is back in internal/rfinfer (see above)"; exit 1; }
	@! grep -n 'corrT\|corrOff\|corrRow\|corrAt\|map\[model\.TagID\]\*tagRec' internal/rfinfer/*.go | grep -v '_test.go:' \
		|| { echo "the packed correction segments, their per-search unpacking or the hashed tag map is back in internal/rfinfer (see above)"; exit 1; }
	@! grep -n 'computeEvidenceInto\|evidenceEpochs\|candU\|fullEvidence\|subViews' internal/rfinfer/*.go | grep -v '_test.go:' \
		|| { echo "the evidence-matrix mode is back in internal/rfinfer (see above)"; exit 1; }
	@! grep -n 'applyReadingLocked\|flushWALLocked\|walBuf\|sectionReadings\|readingsBytes\|AppendReading(' internal/serve/*.go internal/wal/*.go \
		|| { echo "a retired per-record ingest or WAL path is back (see above)"; exit 1; }
	@! grep -n 'crc32\.' internal/stream/frame.go internal/stream/migframe.go internal/stream/replframe.go \
		|| { echo "a network frame codec checks its own CRC; the envelope in internal/stream/envelope.go owns it (see above)"; exit 1; }
	@! grep -rn --include='*.go' 'handleIngestBatch\|BatchRequest\|AppendBatchFrame' . \
		|| { echo "the retired /ingest/batch front door or the second RFB1 encoder is back (see above)"; exit 1; }
	@! grep -n 'groupSignature\|dataSignature\|seriesVersionThrough\|verCache\|postSig\|carryAnchored' internal/rfinfer/*.go | grep -v '_test.go:' \
		|| { echo "a content-hash or dirty-bit key of the E-step memo is back in internal/rfinfer (see above)"; exit 1; }
	@! grep -n 'Version(' internal/model/series.go \
		|| { echo "the series content fingerprint is back in internal/model (see above)"; exit 1; }
	@! grep -n 'func (f \*Feed) Observe\|AdvanceTo\|\<pending\>' internal/dist/*.go | grep -v '_test.go:' \
		|| { echo "the Feed buffers readings again in internal/dist; batches reach it only through AdvanceWith (see above)"; exit 1; }
	@! grep -n 'FeedEvent' internal/expt/*.go \
		|| { echo "a second replay stream is back in internal/expt; cut traces with dist.Intervals (see above)"; exit 1; }
	@! grep -n 'lagged\|pushLocked\|popLocked\|finishPage\|everLagged\|SubQueue\|sync\.Cond' internal/serve/subs.go internal/serve/fanout.go internal/serve/registry.go \
		|| { echo "a subscriber queue or a second wake mechanism is back in the delivery tier; subscribers read the alert log by cursor (see above)"; exit 1; }
	@! grep -n 'stickyWriter\|stickyReader\|stateWriter\|stateReader\|byteWriter\|byteReader\|simpleByteReader\|encodeSeries\|decodeSeries' internal/trace/*.go internal/rfinfer/*.go internal/wal/*.go internal/stream/*.go | grep -v '_test.go:' \
		|| { echo "a hand-rolled field codec is back; encode with model.Writer and decode with model.Reader (see above)"; exit 1; }
	@! grep -n 'binary\.PutUvarint\|binary\.Uvarint' internal/stream/wal.go \
		|| { echo "a hand-rolled field codec is back; encode with model.Writer and decode with model.Reader (see above)"; exit 1; }
	@! grep -n 'legacyRun\|flushLegacy\|version < 4\|version >= [23]' internal/wal/*.go | grep -v '_test.go:' \
		|| { echo "a retired log or snapshot format is read again in internal/wal; a directory holds reading runs and version-4 snapshots only (see above)"; exit 1; }
	@! grep -rn --include='*.go' 'ONSCache' . | grep -v '_test.go:' \
		|| { echo "the ONS cache is back; every peer answers /ons from its own complete mirror (see above)"; exit 1; }
	@! grep -n 'RotateSite\|RotateDepartures\|RotateMigrations\|RotateAlerts\|rotateSegment\|replaySegments\|\<l\.\(deps\|migs\|alerts\)\>\|\<\(deps\|migs\|alerts\) \+\*segment' internal/wal/*.go internal/serve/*.go | grep -v '_test.go:' \
		|| { echo "a per-kind WAL segment field, rotation or directory walk is back; every segment is an entry of wal.Log's table (see above)"; exit 1; }
	@! grep -n 'model\.NewWriter\|io\.Writer\|bytes\.Buffer' internal/rfinfer/state.go internal/rfinfer/snapshot.go internal/stream/pattern.go internal/stream/wal.go internal/wal/state.go internal/dist/migrate.go \
		|| { echo "a state encoder writes to an io.Writer or a bytes.Buffer again; append to a byte slice with model.Writer (see above)"; exit 1; }

# Race-check the concurrent paths: the shared worker pool, parallel
# inference, the multi-site cluster runtime, the per-site query engines it
# drives, the online serving runtime (ingest queue, scheduler, alert
# fan-out), the write-ahead log (appends racing a segment fsync, group
# commit, rotation, shipping) and the wire codecs it and the daemon share.
race:
	$(GO) test -race ./internal/workpool/... ./internal/rfinfer/... ./internal/dist/... ./internal/query/... ./internal/serve/... ./internal/wal/... ./internal/stream/...

# Short fuzz sessions over the wire decoders (90 s total budget): migrated
# state bytes, snapshot payloads (a standby decodes what its primary
# ships), write-ahead-log records and the three network frames (RFB1
# ingest, RFM1 migration, RFS1 WAL shipping — one target per codec's
# seeds, each feeding every input to all three decoders) must never panic
# a receiver, and a corrupt WAL tail or frame must be refused cleanly
# instead of decoding garbage; a JSON ingest body must decode to exactly what encoding/json
# decodes it to.
fuzz-smoke:
	$(GO) test -run XXX -fuzz 'FuzzDecode$$' -fuzztime 10s ./internal/trace/
	$(GO) test -run XXX -fuzz 'FuzzDecodeCR' -fuzztime 10s ./internal/rfinfer/
	$(GO) test -run XXX -fuzz 'FuzzDecodeState' -fuzztime 10s ./internal/wal/
	$(GO) test -run XXX -fuzz 'FuzzDecodeWALRecord' -fuzztime 10s ./internal/stream/
	$(GO) test -run XXX -fuzz 'FuzzDecodeBatchFrame$$' -fuzztime 10s ./internal/stream/
	$(GO) test -run XXX -fuzz 'FuzzDecodeMigrationFrame$$' -fuzztime 10s ./internal/stream/
	$(GO) test -run XXX -fuzz 'FuzzDecodeReplicationFrame$$' -fuzztime 10s ./internal/stream/
	$(GO) test -run XXX -fuzz 'FuzzParseSubscriptionFilter' -fuzztime 10s ./internal/serve/
	$(GO) test -run XXX -fuzz 'FuzzReadEvents' -fuzztime 10s ./internal/serve/

# Whole-artifact benchmarks: regenerate every paper table/figure.
bench:
	$(GO) test -bench=. -benchmem -run XXX .

# Hot-path micro-benchmarks (Engine.Run / E-step / M-step / critical-region
# search / candidate pruning), pinned in BENCH_rfinfer.json.
HOT_BENCH = BenchmarkEngineRun$$|BenchmarkEStep$$|BenchmarkMStep$$|BenchmarkCRSearch$$|BenchmarkPruneCandidates$$
bench-hot:
	$(BENCH_ENV) $(GO) test -bench '$(HOT_BENCH)' -benchmem -run XXX ./internal/rfinfer/

# Cluster-runtime benchmarks, pinned in BENCH_dist.json: migration
# throughput (full export -> encode -> decode -> import round trip for the
# collapsed-weights vs CR vs full strategies, plus the wire codec) and one
# feed checkpoint — balanced, and on the skewed paper_dense shape at 1, 2
# and 4 workers (FeedAdvanceSkewed: the shared pool must beat the
# site-level ceiling of 0.6 x the workers=1 row).
DIST_BENCH = BenchmarkMigration|BenchmarkFeedAdvance
bench-dist:
	$(BENCH_ENV) $(GO) test -bench '$(DIST_BENCH)' -benchmem -run XXX ./internal/dist/ ./internal/stream/ | $(GO) run ./cmd/benchjson -o BENCH_dist.json

# Every baseline-tracked benchmark runs under a pinned GOGC so GC cadence
# cannot drift between the committed BENCH_*.json and a checking run (an
# ambient GOGC tweak would otherwise masquerade as a perf change).
BENCH_ENV = GOGC=100
SERVE_BENCH = BenchmarkIngest$$|BenchmarkReadEvents$$|BenchmarkIngestBatch$$|BenchmarkIngestBin$$|BenchmarkClientIngestBinEncode$$|BenchmarkCheckpoint$$|BenchmarkCheckpointIdle$$|BenchmarkIngestDuringCheckpoint$$|BenchmarkFanout100k$$
WAL_BENCH = BenchmarkIngestWAL$$|BenchmarkIngestBinWAL$$|BenchmarkRecovery$$|BenchmarkRecoveryCrashRecover$$|BenchmarkWAL|BenchmarkPromotion$$

# Online-runtime benchmarks: sustained ingest throughput into a 4-site
# cluster (the readings/s metric is the headline number — regressions show
# up directly in the log), the single-site batch fast path, per-checkpoint
# scheduler latency dense and idle-heavy, and ingest p99 while a
# checkpoint is running.
bench-serve:
	$(BENCH_ENV) $(GO) test -bench '$(SERVE_BENCH)' -benchmem -run XXX ./internal/serve/

# Machine-readable benchmark tracking: run the serve, rfinfer and dist
# suites and emit BENCH_<pkg>.json (name, ns/op, B/op, allocs/op, plus
# custom metrics like readings/s) so the perf trajectory is comparable
# across PRs.
bench-json:
	$(BENCH_ENV) $(GO) test -bench '$(SERVE_BENCH)' -benchmem -run XXX ./internal/serve/ | $(GO) run ./cmd/benchjson -o BENCH_serve.json
	$(BENCH_ENV) $(GO) test -bench '$(HOT_BENCH)' -benchmem -run XXX ./internal/rfinfer/ | $(GO) run ./cmd/benchjson -o BENCH_rfinfer.json
	$(MAKE) bench-dist
	$(BENCH_ENV) $(GO) test -bench '$(WAL_BENCH)' -benchmem -run XXX ./internal/serve/ ./internal/wal/ | $(GO) run ./cmd/benchjson -o BENCH_wal.json

# Perf regression gate: re-run the online-runtime, durability, inference
# and cluster-runtime benchmarks and fail when a headline number (ns/op,
# allocs/op or readings/s) regresses more than 20% against the committed
# baselines in BENCH_serve.json / BENCH_wal.json / BENCH_rfinfer.json /
# BENCH_dist.json. Legitimately noisier benchmarks get
# wider per-metric margins via -tolerance: recovery is I/O-bound, the
# 100k-consumer fan-out and checkpoint-concurrent ingest are scheduler-
# noise-bound, the dense-checkpoint latency swings with GC phase, and the
# two IngestBin rows are the page faults of fresh bucket chunks on servers
# that live for a megareading each — 39-84 ns/op across six runs of one
# binary on the reference box while buckets grew by re-copying, 17-20 ns
# since they grow by chunks; their zero-alloc gate stays hard. The inference rows
# (BENCH_rfinfer.json, FeedAdvanceSkewed) are CPU-bound, so their wall time
# follows the box's clock: one binary read EngineRun 3.2-4.5 ms and
# FeedAdvanceSkewed/workers=1 394-556 ms over an afternoon on the reference
# box, hence 0.30 on their ns/op and readings/s. ReadEvents, the JSON front
# door's decode alone, is CPU-bound the same way (79-106 us per 512-event
# body over four runs of one binary) and gets 0.30 on ns/op; its zero-alloc
# gate stays hard. Against worst-of-three
# baselines that catches a phase-sized loss (the M-step without its evidence
# cells is +23 % on FeedAdvanceSkewed before the baseline's slack), not a
# 10 % one; allocs/op, which moves only with the iteration count (the
# benchmark cycles 12 unequal checkpoints: +-8 %), stays at the default and
# is the sharper signal. workers=4 oversubscribes a two-core box and the
# balanced FeedAdvance row is 20 ms of mostly allocation, hence 0.40.
# FeedAdvance, FeedAdvanceSkewed and IngestDuringCheckpoint recycle one
# world through the same engines with shifted epochs, so every object
# comes back to every site again and again. Since storage is given back
# when truncation frees it (PERFORMANCE.md "Memory follows the live
# history"), each return allocates the object's tables anew where it
# used to find the peak-size ones still held: their allocs/op and B/op
# rose with that change and were re-pinned (worst of four runs), not
# widened; EngineRun's steady state shrinks and regrows some series each
# Run for the same reason. That re-pin left every ns/op and readings/s
# baseline where it was: the change moves no timing gate, and a fresh
# worst-of-four timing baseline failed MigrationCR at +37 % one run later
# on the two-core reference box.
# Regenerate the baselines with `make bench-json` when a change
# legitimately moves them.
bench-check:
	$(BENCH_ENV) $(GO) test -bench '$(SERVE_BENCH)' -benchmem -run XXX ./internal/serve/ | $(GO) run ./cmd/benchjson -check BENCH_serve.json -tolerance 'ReadEvents:ns/op=0.30,Fanout100k=0.35,IngestDuringCheckpoint=0.35,Checkpoint:ns/op=0.30,CheckpointIdle:ns/op=0.30,IngestBin/section512=0.50,IngestBin/bigsection=0.50'
	$(BENCH_ENV) $(GO) test -bench '$(WAL_BENCH)' -benchmem -run XXX ./internal/serve/ ./internal/wal/ | $(GO) run ./cmd/benchjson -check BENCH_wal.json -tolerance 'Recovery=0.40,RecoveryCrashRecover=0.40,Promotion=0.40'
	$(BENCH_ENV) $(GO) test -bench '$(HOT_BENCH)' -benchmem -run XXX ./internal/rfinfer/ | $(GO) run ./cmd/benchjson -check BENCH_rfinfer.json -tolerance 'EngineRun:ns/op=0.30,EStep:ns/op=0.30,MStep:ns/op=0.30,CRSearch:ns/op=0.30,PruneCandidates:ns/op=0.30'
	$(BENCH_ENV) $(GO) test -bench '$(DIST_BENCH)' -benchmem -run XXX ./internal/dist/ ./internal/stream/ | $(GO) run ./cmd/benchjson -check BENCH_dist.json -tolerance 'FeedAdvanceSkewed/workers=1:ns/op=0.30,FeedAdvanceSkewed/workers=1:readings/s=0.30,FeedAdvanceSkewed/workers=2:ns/op=0.30,FeedAdvanceSkewed/workers=2:readings/s=0.30,FeedAdvanceSkewed/workers=4=0.40,FeedAdvance:ns/op=0.40,FeedAdvance:readings/s=0.40'

# Benchmark smoke: a 100ms pass over the online-runtime benchmarks that
# fails on build error or panic, so a checkpoint/ingest regression that
# crashes cannot land even when nobody ran the full bench suite.
bench-smoke:
	$(GO) test -bench 'BenchmarkIngest$$|BenchmarkIngestBatch$$|BenchmarkIngestBin$$|BenchmarkCheckpoint$$' -benchtime 100ms -run XXX ./internal/serve/

# Benchmark-harness smoke: all four workloads in the harness's quick mode
# (tiny world, one repetition, a few seconds each). Every one of them starts
# daemons on fresh directories — alert_live a standby too — so a log-format
# or start-path change that breaks one of the harness's own checks — every
# acknowledged event replayed after kill -9, WAL bytes on disk matching the
# counters, /result DeepEqual the reference including the centralized
# baseline, the alert log and SSE transcript — fails here rather than at the
# benchmark gate. Each workload's traced ledger run (-trace 1) follows: it
# takes and loads snapshots and ships the WAL in-process, codec paths the
# untraced runs do not all reach.
bench-quick:
	$(GO) run ./bench -quick -workload firehose
	$(GO) run ./bench -quick -workload crash_recover
	$(GO) run ./bench -quick -workload paper_dense
	$(GO) run ./bench -quick -workload alert_live
	$(GO) run ./bench -quick -trace 1 -workload firehose
	$(GO) run ./bench -quick -trace 1 -workload crash_recover
	$(GO) run ./bench -quick -trace 1 -workload paper_dense
	$(GO) run ./bench -quick -trace 1 -workload alert_live

# Recovery smoke: build the real daemon, kill -9 it mid-stream, restart
# over the same data directory, and require the drained result to match
# the uninterrupted reference exactly; then restart once more with -items
# changed and require the daemon to refuse the directory. Bounded to a few
# seconds.
recover-smoke:
	$(GO) test -run 'TestRecoverSmoke' -count=1 -v .

# Cluster smoke: build the real daemon, run TWO of them as networked peers
# with the sites split between them, kill -9 one mid-stream, restart it,
# and require the merged result to match the single-cluster reference
# exactly. Bounded to a few seconds.
peer-smoke:
	$(GO) test -run 'TestPeerSmoke' -count=1 -v .

# Consumer-scale fan-out smoke: the real daemon plus a thousand real
# SSE / cursor long-poll consumers attached while the world streams must
# each receive the exact alert sequence; then, after the stream has
# drained, a hundred late consumers (half from cursor 0, half resuming
# from a mid-sequence cursor) must each receive exactly the rest of it.
# Bounded to a few seconds.
fanout-smoke:
	$(GO) test -run 'TestFanoutSmoke' -count=1 -v .

# Warm-standby failover smoke: a two-peer durable cluster plus a standby
# daemon shadowing peer 0 over WAL shipping. kill -9 the primary
# mid-stream, POST /promote to the standby, repoint the producer, and
# require the merged result to match the uninterrupted reference exactly.
# Bounded to a few seconds.
failover-smoke:
	$(GO) test -run 'TestFailoverSmoke' -count=1 -v .

# Failover soak: repeat randomized kill-and-promote cycles (random cut
# point, random worker count, logged seed) for RFID_SOAK_SECONDS (default
# 60). Not part of ci — run before releases or when chasing a failover
# flake.
soak:
	RFID_SOAK=1 $(GO) test -run 'TestFailoverSoak' -count=1 -timeout 10m -v ./internal/serve/

# Documentation gate: formatting, vet, no undocumented exported
# identifiers in the public-facing packages, and no dead cross-links in
# the markdown docs.
docs-lint:
	@fmt="$$(gofmt -l .)"; if [ -n "$$fmt" ]; then echo "gofmt needed on:"; echo "$$fmt"; exit 1; fi
	$(GO) vet ./...
	$(GO) run ./cmd/docslint . ./internal/serve ./internal/dist ./internal/query ./internal/stream ./internal/wal
	$(GO) run ./cmd/docslint -md README.md -md ARCHITECTURE.md -md PERFORMANCE.md -md OPERATIONS.md

# Tier-1 verify: everything the CI gate runs, in one command.
ci: build vet test race fuzz-smoke bench-smoke bench-quick bench-check recover-smoke peer-smoke fanout-smoke failover-smoke docs-lint
