// Command rfidinfer runs RFINFER (or the SMURF* baseline) over a simulated
// trace and reports containment/location error rates and, with -anomaly,
// change-detection accuracy. It is the single-site inference pipeline of
// Section 5.1 as a CLI.
//
// Usage:
//
//	rfidinfer -epochs 1800 -rr 0.7 -anomaly 60
//	rfidinfer -engine smurf -rr 0.7
//
// It exits 2 on a usage error: an unknown flag or a non-positive -interval.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"rfidtrack/internal/expt"
	"rfidtrack/internal/metrics"
	"rfidtrack/internal/model"
	"rfidtrack/internal/rfinfer"
	"rfidtrack/internal/sim"
	"rfidtrack/internal/smurf"
)

func main() {
	var (
		epochs   = flag.Int("epochs", 1500, "trace duration in seconds")
		rr       = flag.Float64("rr", 0.8, "main read rate")
		or       = flag.Float64("or", 0.5, "shelf overlap rate")
		items    = flag.Int("items", 20, "items per case")
		anomaly  = flag.Int("anomaly", 0, "containment change interval (0 = none)")
		interval = flag.Int("interval", 300, "inference interval in seconds")
		engine   = flag.String("engine", "rfinfer", "rfinfer | smurf")
		truncate = flag.String("truncate", "cr", "cr | all | window")
		hbar     = flag.Int("hbar", 600, "recent history H̄ in seconds")
		seed     = flag.Int64("seed", 1, "generation seed")
	)
	flag.Parse()
	if *interval <= 0 {
		// Every checkpoint is interval epochs after the last: a non-positive
		// one never reaches the end of the trace.
		fmt.Fprintf(os.Stderr, "rfidinfer: -interval must be positive, got %d\n", *interval)
		flag.Usage()
		os.Exit(2)
	}

	cfg := sim.DefaultConfig()
	cfg.Epochs = model.Epoch(*epochs)
	cfg.RR = *rr
	cfg.OR = *or
	cfg.ItemsPerCase = *items
	cfg.AnomalyEvery = *anomaly
	cfg.Seed = *seed
	w, err := sim.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	tr := w.Single()
	fmt.Printf("trace: %d epochs, %d items, %d raw readings, %d true changes\n",
		tr.Epochs, len(tr.Items()), tr.NumReadings(), len(w.Changes))

	switch *engine {
	case "smurf":
		res := expt.RunSingleSiteSMURF(tr, smurf.DefaultConfig(), model.Epoch(*interval))
		fmt.Printf("SMURF*: containment error %.2f%%, location error %.2f%%, infer time %v\n",
			res.ContErr.Rate(), res.LocErr.Rate(), res.InferTime)
		prf := score(w, changeEvents(res.Changes))
		if *anomaly > 0 {
			fmt.Printf("change detection: P=%.1f%% R=%.1f%% F=%.1f%%\n", prf.Precision, prf.Recall, prf.F)
		}
	case "rfinfer":
		icfg := rfinfer.DefaultConfig()
		icfg.RecentHistory = model.Epoch(*hbar)
		switch *truncate {
		case "all":
			icfg.Truncation = rfinfer.TruncateNone
		case "window":
			icfg.Truncation = rfinfer.TruncateWindow
		case "cr":
		default:
			log.Fatalf("unknown -truncate %q", *truncate)
		}
		if *anomaly > 0 {
			delta, err := expt.CalibrateDelta(cfg, icfg, model.Epoch(*interval))
			if err != nil {
				log.Fatal(err)
			}
			icfg.Delta = delta
			fmt.Printf("offline-calibrated change threshold δ = %.1f\n", delta)
		}
		res := expt.RunSingleSite(tr, icfg, model.Epoch(*interval))
		fmt.Printf("RFINFER: containment error %.2f%%, location error %.2f%%, "+
			"%d EM iterations over %d runs, infer time %v\n",
			res.ContErr.Rate(), res.LocErr.Rate(), res.Iterations, res.Runs, res.InferTime)
		if *anomaly > 0 {
			var det []metrics.ChangeEvent
			for _, d := range res.Detections {
				det = append(det, metrics.ChangeEvent{Object: d.Object, T: d.At})
			}
			prf := score(w, det)
			fmt.Printf("change detection: %d detections, P=%.1f%% R=%.1f%% F=%.1f%%\n",
				len(det), prf.Precision, prf.Recall, prf.F)
		}
	default:
		log.Fatalf("unknown -engine %q", *engine)
	}
}

func score(w *sim.World, det []metrics.ChangeEvent) metrics.PRF {
	var truth []metrics.ChangeEvent
	for _, ch := range w.Changes {
		truth = append(truth, metrics.ChangeEvent{Object: ch.Object, T: ch.T})
	}
	return metrics.MatchChanges(truth, det, 300)
}

func changeEvents(reports []smurf.ChangeReport) []metrics.ChangeEvent {
	var out []metrics.ChangeEvent
	for _, r := range reports {
		out = append(out, metrics.ChangeEvent{Object: r.Object, T: r.At})
	}
	return out
}
