package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// defaultSeconds is BENCHMARK.json's run_seconds: the measuring time of a
// run when -seconds is not given.
const defaultSeconds = 12

// metricDef is one metric's fixed description.
type metricDef struct {
	Unit string
	// HigherBetter is the direction -compare judges by.
	HigherBetter bool
	// Bound is the share of the baseline median by which the metric may
	// worsen before it counts as a regression; 0 for per-layer metrics,
	// which are not gated.
	Bound float64
}

// driverEndToEnd lists the end-to-end metrics BENCHMARK.json gates, in its
// order. The benchmark contract requires every one of them on every
// workload and none of them ever 0, so it holds the six metrics that are
// defined, and steady, on all four workloads (see README.md for the three
// the issue named that are not: alert latency exists only where a query
// runs, the two p90s sit on a cliff, and failed_share is 0 by design).
var driverEndToEnd = []string{
	"setup_s",
	"readings_per_s",
	"daemon_cpu_s_per_mreading",
	"peak_rss_mb",
	"ingest_ack_p50_ms",
	"restart_to_ready_s",
}

// endToEndExtra are end-to-end metrics -compare gates on the workloads
// that define them, beyond the driver's list.
var endToEndExtra = []string{
	"alert_latency_p50_ms",
	"failed_share",
}

// metricDefs is the registry: every name the harness may report. The
// end-to-end bounds are also written in BENCHMARK.json; TestBenchmarkJSON
// keeps the two in step.
var metricDefs = map[string]metricDef{
	"setup_s":                   {Unit: "s", Bound: 0.25},
	"readings_per_s":            {Unit: "1/s", HigherBetter: true, Bound: 0.25},
	"daemon_cpu_s_per_mreading": {Unit: "s", Bound: 0.25},
	"peak_rss_mb":               {Unit: "MB", Bound: 0.25},
	"ingest_ack_p50_ms":         {Unit: "ms", Bound: 0.25},
	"restart_to_ready_s":        {Unit: "s", Bound: 0.25},
	"alert_latency_p50_ms":      {Unit: "ms", Bound: 0.25},
	"failed_share":              {Unit: "ratio"},
	// Printed by the end-to-end run, gated by nothing: see README.md.
	"ingest_ack_p90_ms":    {Unit: "ms"},
	"alert_latency_p90_ms": {Unit: "ms"},

	"stream.frame_decode_ns_per_reading": {Unit: "ns"},
	"stream.frame_encode_ns_per_reading": {Unit: "ns"},
	"stream.frame_bytes_per_reading":     {Unit: "B"},

	"serve.ingest_frame_ns_per_reading":     {Unit: "ns"},
	"serve.ingest_frame_wal_ns_per_reading": {Unit: "ns"},
	"serve.backpressure_waits":              {Unit: "count"},
	"serve.http_share":                      {Unit: "ratio"},
	"serve.json_decode_ns_per_event":        {Unit: "ns"},
	"serve.ingest_json_ns_per_event":        {Unit: "ns"},

	"wal.append_ns_per_reading": {Unit: "ns"},
	"wal.commit_p50_us":         {Unit: "us"},
	"wal.commit_max_us":         {Unit: "us"},
	"wal.strict_ack_p50_us":     {Unit: "us"},
	"wal.bytes_per_reading":     {Unit: "B"},
	"wal.syncs":                 {Unit: "count"},
	"wal.replay_ns_per_record":  {Unit: "ns"},
	"wal.load_state_ms":         {Unit: "ms"},
	"wal.ship_mb_per_s":         {Unit: "MB/s", HigherBetter: true},
	"wal.repl_lag_p50_kb":       {Unit: "kB"},

	"serve.recover_ms":          {Unit: "ms"},
	"serve.recover_snapshot_ms": {Unit: "ms"},
	"serve.promote_ms":          {Unit: "ms"},
	"sim.generate_ms":           {Unit: "ms"},

	"dist.advance_ms_per_checkpoint": {Unit: "ms"},
	"dist.phase_ingest_ms":           {Unit: "ms"},
	"dist.phase_migrate_ms":          {Unit: "ms"},
	"dist.phase_infer_ms":            {Unit: "ms"},
	"dist.phase_tail_ms":             {Unit: "ms"},
	"dist.fused_share":               {Unit: "ratio"},
	"dist.migrations":                {Unit: "count"},
	"dist.migrated_bytes":            {Unit: "B"},
	"dist.site_skew":                 {Unit: "ratio"},

	"rfinfer.run_ms_per_site_checkpoint": {Unit: "ms"},
	"rfinfer.dirty_groups":               {Unit: "count"},
	"rfinfer.skipped_groups":             {Unit: "count"},
	"rfinfer.rows_reused_share":          {Unit: "ratio", HigherBetter: true},
	"rfinfer.evidence_skipped_share":     {Unit: "ratio", HigherBetter: true},
	"rfinfer.em_iterations":              {Unit: "count"},

	"query.tail_ms_per_checkpoint": {Unit: "ms"},
	"query.alerts":                 {Unit: "count"},

	"serve.checkpoint_p50_ms":                {Unit: "ms"},
	"serve.checkpoint_max_ms":                {Unit: "ms"},
	"serve.sched_overhead_ms_per_checkpoint": {Unit: "ms"},
	"serve.snapshot_ms":                      {Unit: "ms"},
	"serve.publish_to_poll_p50_us":           {Unit: "us"},
	"serve.fanout_ns_per_match":              {Unit: "ns"},
	"serve.delivery_enqueued":                {Unit: "count"},
	"serve.delivery_dropped":                 {Unit: "count"},
	"serve.delivery_catchups":                {Unit: "count"},

	"loadgen.late_p99_ms":          {Unit: "ms"},
	"loadgen.achieved_rate_share":  {Unit: "ratio", HigherBetter: true},
	"loadgen.alert_latency_p50_ms": {Unit: "ms"},
	"loadgen.alert_latency_p90_ms": {Unit: "ms"},
	"loadgen.alert_latency_p99_ms": {Unit: "ms"},
	"loadgen.alert_latency_max_ms": {Unit: "ms"},
	"loadgen.ingest_ack_p90_ms":    {Unit: "ms"},
	"loadgen.ingest_ack_p99_ms":    {Unit: "ms"},

	"trace.unattributed_share": {Unit: "ratio"},
	"trace.overhead_share":     {Unit: "ratio"},
}

// driverPerLayer lists the per-layer metrics BENCHMARK.json names, the
// ones a traced run reports to the driver. Exact-repeat counts are marked
// in README.md.
var driverPerLayer = []string{
	"stream.frame_decode_ns_per_reading", "stream.frame_encode_ns_per_reading", "stream.frame_bytes_per_reading",
	"serve.ingest_frame_ns_per_reading", "serve.ingest_frame_wal_ns_per_reading", "serve.backpressure_waits",
	"serve.http_share", "serve.json_decode_ns_per_event", "serve.ingest_json_ns_per_event",
	"wal.append_ns_per_reading", "wal.commit_p50_us", "wal.commit_max_us", "wal.strict_ack_p50_us",
	"wal.bytes_per_reading", "wal.syncs", "wal.replay_ns_per_record", "wal.load_state_ms",
	"wal.ship_mb_per_s", "wal.repl_lag_p50_kb",
	"serve.recover_ms", "serve.recover_snapshot_ms", "serve.promote_ms", "sim.generate_ms",
	"dist.advance_ms_per_checkpoint", "dist.phase_ingest_ms", "dist.phase_migrate_ms", "dist.phase_infer_ms",
	"dist.phase_tail_ms", "dist.fused_share", "dist.migrations", "dist.migrated_bytes", "dist.site_skew",
	"rfinfer.run_ms_per_site_checkpoint", "rfinfer.dirty_groups", "rfinfer.skipped_groups",
	"rfinfer.rows_reused_share", "rfinfer.evidence_skipped_share", "rfinfer.em_iterations",
	"query.tail_ms_per_checkpoint", "query.alerts",
	"serve.checkpoint_p50_ms", "serve.checkpoint_max_ms", "serve.sched_overhead_ms_per_checkpoint",
	"serve.snapshot_ms", "serve.publish_to_poll_p50_us", "serve.fanout_ns_per_match",
	"serve.delivery_enqueued", "serve.delivery_dropped", "serve.delivery_catchups",
	"loadgen.late_p99_ms", "loadgen.achieved_rate_share",
	"loadgen.alert_latency_p50_ms", "loadgen.alert_latency_p90_ms",
	"loadgen.alert_latency_p99_ms", "loadgen.alert_latency_max_ms",
	"loadgen.ingest_ack_p90_ms", "loadgen.ingest_ack_p99_ms",
	"trace.unattributed_share", "trace.overhead_share",
}

// runContext describes the machine and build the numbers came from.
func runContext() string {
	cpu := "unknown cpu"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				cpu = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	kernel := "unknown kernel"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	commit := "no git checkout"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d %s cpu=%q kernel=%s commit=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpu, kernel, commit)
}
