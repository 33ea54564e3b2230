package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"time"
)

// setupRounds is how many times a run prepares from scratch; setup_s
// reports the median round, so the one cold compile in a fresh checkout
// does not decide it.
const setupRounds = 3

// maxReps caps the repetitions a long -seconds can buy.
const maxReps = 12

// prepareRounds runs the set-up several times and returns the last
// round's product with every round's wall time.
func prepareRounds(ctx context.Context, w workload, seed int64, rounds int) (*setup, []float64, error) {
	var s *setup
	var took []float64
	for i := 0; i < rounds; i++ {
		t0 := time.Now()
		var err error
		if s, err = prepare(ctx, w, seed); err != nil {
			return nil, nil, err
		}
		took = append(took, time.Since(t0).Seconds())
	}
	return s, took, nil
}

// sizing records what a run actually ran, for the output and the -out file.
func (w workload) sizing(s *setup, reps, seconds int) string {
	loop := "closed loop"
	if w.Rate > 0 {
		loop = fmt.Sprintf("open loop at %.0f events/s (late limit %.0f ms, backlog limit %s)", w.Rate, lateLimitMS, backlogLimit)
	}
	codec := fmt.Sprintf("JSON lines, %d events per POST", w.Batch)
	if w.Binary {
		codec = fmt.Sprintf("RFB1 frames of %d readings", w.Batch)
	}
	return fmt.Sprintf("world: sites=%d path=%d items=%d epochs=%d anomaly=%d delta=%d strategy=%s query=%v standby=%v\n"+
		"load: %s, %s, %d POSTs carrying %d readings + %d departures; K=%d repetitions in -seconds=%d",
		w.World.Sites, w.World.Path, w.World.Items, w.World.Epochs, w.World.Anomaly, w.World.Interval,
		w.World.Strategy, w.World.Query, w.Standby, loop, codec, len(s.bodies), s.readings, s.departs, reps, seconds)
}

// runEndToEnd is one untraced run: set-up, the reference, then
// repetitions on fresh daemons until the measuring time is used up.
func runEndToEnd(ctx context.Context, w workload, seed int64, seconds int) (*runResult, error) {
	rounds := setupRounds
	if seconds == 0 {
		rounds = 1 // quick
	}
	s, prepS, err := prepareRounds(ctx, w, seed, rounds)
	if err != nil {
		return nil, err
	}
	ref, err := computeReference(w.World, s.world)
	if err != nil {
		return nil, err
	}
	// The set-up rounds and the reference leave gigabytes of garbage; a
	// collection running beside the first daemon would slow it on a box
	// with as many cores as processes. Collect now, outside every window.
	s.world = nil
	runtime.GC()
	debug.FreeOSMemory()

	var reps []*repResult
	measuring := time.Now()
	for len(reps) < w.MinReps || (len(reps) < maxReps && time.Since(measuring) < time.Duration(seconds)*time.Second) {
		r, err := runRep(ctx, w, s, ref, repOptions{verifyRecovery: len(reps) == 0})
		if err != nil {
			return nil, fmt.Errorf("repetition %d: %w", len(reps), err)
		}
		reps = append(reps, r)
	}

	res := &runResult{Workload: w.Name, Seed: seed, Sizing: w.sizing(s, len(reps), seconds)}
	var start, rps, cpu, rss, restart, ack, alert []float64
	var ackP50, ackP90, alertP50, alertP90 []float64
	for _, r := range reps {
		start = append(start, r.startS)
		rps = append(rps, r.readingsPerS)
		cpu = append(cpu, r.cpuPerMReading)
		rss = append(rss, r.peakRSSMB)
		restart = append(restart, r.restartS)
		ack = append(ack, r.ackMS...)
		ackP50 = append(ackP50, percentile(r.ackMS, 50))
		ackP90 = append(ackP90, percentile(r.ackMS, 90))
		if len(r.alertMS) > 0 {
			alert = append(alert, r.alertMS...)
			alertP50 = append(alertP50, percentile(r.alertMS, 50))
			alertP90 = append(alertP90, percentile(r.alertMS, 90))
		}
		res.Attempted += r.attempted
		res.Failed += r.failed
		res.Problems = append(res.Problems, r.problems...)
	}
	// setup_s: one preparation plus one daemon start, each at its median.
	setupS := make([]float64, len(prepS))
	for i, p := range prepS {
		setupS[i] = p + median(start)
	}
	res.add("setup_s", median(setupS), setupS, len(setupS))
	res.add("readings_per_s", median(rps), rps, len(rps))
	res.add("daemon_cpu_s_per_mreading", median(cpu), cpu, len(cpu))
	res.add("peak_rss_mb", median(rss), rss, len(rss))
	res.add("ingest_ack_p50_ms", percentile(ack, 50), ackP50, len(ack))
	res.add("ingest_ack_p90_ms", percentile(ack, 90), ackP90, len(ack))
	res.add("restart_to_ready_s", median(restart), restart, len(restart))
	if len(alert) > 0 {
		res.add("alert_latency_p50_ms", percentile(alert, 50), alertP50, len(alert))
		res.add("alert_latency_p90_ms", percentile(alert, 90), alertP90, len(alert))
	}
	res.Notes = append(res.Notes, tailNote("ingest_ack", ack), tailNote("alert_latency", alert))
	share := float64(res.Failed) / float64(max(res.Attempted, 1))
	res.add("failed_share", share, []float64{share}, res.Attempted)
	res.Correct = res.Failed == 0
	return res, nil
}

// tailNote reports a latency's highest percentile that still has ten
// samples beyond it, and its maximum; the tail is printed, never gated.
func tailNote(name string, ms []float64) string {
	if len(ms) == 0 {
		return name + ": no samples on this workload"
	}
	p := highestPercentile(len(ms))
	if p == 0 {
		return fmt.Sprintf("%s: %d samples support no percentile; max %.3f ms", name, len(ms), percentile(ms, 100))
	}
	return fmt.Sprintf("%s: p%g = %.3f ms is the highest percentile %d samples support; max %.3f ms",
		name, p, percentile(ms, p), len(ms), percentile(ms, 100))
}
