// Package expt contains the experiment harness that regenerates every table
// and figure of the paper's evaluation (Section 5 and Appendix C). Each
// FigureX/TableX function returns printable rows; bench_test.go and
// cmd/experiments are thin wrappers around them.
package expt

import (
	"time"

	"rfidtrack/internal/dist"
	"rfidtrack/internal/metrics"
	"rfidtrack/internal/model"
	"rfidtrack/internal/rfinfer"
	"rfidtrack/internal/sim"
	"rfidtrack/internal/smurf"
	"rfidtrack/internal/trace"
)

// engine is what a single-site replay drives and scores: RFINFER or the
// SMURF* baseline.
type engine interface {
	RegisterContainer(id model.TagID)
	RegisterObject(id model.TagID)
	ObserveMask(t model.Epoch, id model.TagID, m model.Mask) error
	Container(id model.TagID) model.TagID
	LocationAt(id model.TagID, t model.Epoch) model.Loc
}

// replaySingle declares every case of a trace as a container and every item
// as an object, then feeds the engine the trace one dist.Intervals batch at
// a time and calls checkpoint after each with the epoch it evaluates at.
func replaySingle(eng engine, tr *trace.Trace, interval model.Epoch, checkpoint func(evalAt model.Epoch)) error {
	for i := range tr.Tags {
		switch tr.Tags[i].Kind {
		case model.KindCase:
			eng.RegisterContainer(tr.Tags[i].ID)
		case model.KindItem:
			eng.RegisterObject(tr.Tags[i].ID)
		}
	}
	for k, batch := range dist.Intervals(tr, interval) {
		for _, r := range batch {
			if err := eng.ObserveMask(r.T, r.ID, r.Mask); err != nil {
				return err
			}
		}
		checkpoint(model.Epoch(k+1)*interval - 1)
	}
	return nil
}

// scoreAt adds the engine's containment and item location error at evalAt
// against the trace's ground truth.
func scoreAt(eng engine, tr *trace.Trace, evalAt model.Epoch, cont, loc *metrics.Counts) {
	cont.Add(metrics.ContainmentErrorAt(tr, evalAt, eng.Container))
	loc.Add(metrics.LocationErrorAt(tr, evalAt, model.KindItem, func(id model.TagID) model.Loc {
		return eng.LocationAt(id, evalAt)
	}))
}

// SingleResult aggregates a single-site run.
type SingleResult struct {
	// ContErr and LocErr accumulate containment / location error
	// observations at every inference checkpoint.
	ContErr, LocErr metrics.Counts
	// InferTime is the total wall time spent inside Engine.Run.
	InferTime time.Duration
	// Detections are all change points the engine reported.
	Detections []rfinfer.Detection
	// Iterations is the total EM iteration count across runs.
	Iterations int
	// Runs is the number of inference checkpoints executed.
	Runs int
}

// RunSingleSite replays a trace into a fresh engine, invoking Engine.Run
// every interval epochs (300 s in the paper) and scoring containment and
// location against ground truth at each checkpoint.
func RunSingleSite(tr *trace.Trace, cfg rfinfer.Config, interval model.Epoch) SingleResult {
	eng := rfinfer.New(tr.Likelihood(), cfg)
	var res SingleResult
	err := replaySingle(eng, tr, interval, func(evalAt model.Epoch) {
		start := time.Now()
		rr := eng.Run(evalAt)
		res.InferTime += time.Since(start)
		res.Iterations += rr.Iterations
		res.Runs++
		scoreAt(eng, tr, evalAt, &res.ContErr, &res.LocErr)
	})
	if err != nil {
		panic(err)
	}
	res.Detections = eng.Detections()
	return res
}

// SMURFResult aggregates a single-site SMURF* run.
type SMURFResult struct {
	ContErr, LocErr metrics.Counts
	InferTime       time.Duration
	Changes         []smurf.ChangeReport
	Runs            int
}

// RunSingleSiteSMURF replays a trace through the SMURF* baseline with the
// same checkpointing and scoring as RunSingleSite.
func RunSingleSiteSMURF(tr *trace.Trace, cfg smurf.Config, interval model.Epoch) SMURFResult {
	eng := smurf.New(tr.Likelihood(), cfg)
	var res SMURFResult
	err := replaySingle(eng, tr, interval, func(evalAt model.Epoch) {
		start := time.Now()
		eng.Run(evalAt)
		res.InferTime += time.Since(start)
		res.Runs++
		scoreAt(eng, tr, evalAt, &res.ContErr, &res.LocErr)
	})
	if err != nil {
		panic(err)
	}
	res.Changes = eng.Changes()
	return res
}

// CalibrateDelta chooses the change-point threshold δ offline, before any
// production data arrives, by replaying a simulated deployment with the
// same workload parameters (the hypothetical sequences of Section 3.3,
// drawn from the full workload generator rather than the bare graphical
// model so the Δ statistics see the same entry/belt/shelf phase structure
// and anomaly-induced neighborhood churn as production data). δ is the
// maximum Δ over objects whose containment never actually changed — in the
// calibration world the ground truth is known, so every such Δ would be a
// false positive.
func CalibrateDelta(simCfg sim.Config, inferCfg rfinfer.Config, interval model.Epoch) (float64, error) {
	// The max statistic is noisy, so sample several hypothetical worlds and
	// bias the threshold upward: above the optimum the F-measure falls off
	// slowly (only recall decays), while below it precision collapses.
	const (
		replicas = 3
		headroom = 1.5
	)
	maxDelta := 0.0
	for rep := 0; rep < replicas; rep++ {
		cfg := simCfg
		cfg.Seed = simCfg.Seed ^ (0x5ca1ab1e + int64(rep)*0x9e37) // decorrelate
		w, err := sim.Generate(cfg)
		if err != nil {
			return 0, err
		}
		changed := make(map[model.TagID]bool)
		for _, ch := range w.Changes {
			changed[ch.Object] = true
		}
		icfg := inferCfg
		icfg.Delta = 0
		icfg.CollectDeltas = true
		tr := w.Single()
		eng := rfinfer.New(tr.Likelihood(), icfg)
		if err := replaySingle(eng, tr, interval, func(evalAt model.Epoch) { eng.Run(evalAt) }); err != nil {
			return 0, err
		}
		for _, d := range eng.DeltaSamples() {
			if !changed[d.Object] && d.Delta > maxDelta {
				maxDelta = d.Delta
			}
		}
	}
	return headroom * maxDelta, nil
}
