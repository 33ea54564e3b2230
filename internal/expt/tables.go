package expt

import (
	"fmt"
	"time"

	"rfidtrack/internal/dist"
	"rfidtrack/internal/metrics"
	"rfidtrack/internal/model"
	"rfidtrack/internal/rfinfer"
	"rfidtrack/internal/sim"
)

// Table3 reproduces Table 3: change-detection F-measure across fixed δ
// values and the offline-calibrated δ (last column), for several read
// rates.
func Table3(sc Scale) Table {
	deltas := []float64{20, 40, 60, 90, 130, 200}
	tbl := Table{
		ID:     "Table 3",
		Title:  "F-measure (%) of change detection vs threshold δ",
		Header: []string{"RR"},
	}
	for _, d := range deltas {
		tbl.Header = append(tbl.Header, fmt.Sprintf("δ=%.0f", d))
	}
	tbl.Header = append(tbl.Header, "δ=offline")

	for _, rr := range []float64{0.6, 0.7, 0.8, 0.9} {
		cfg := baseConfig(sc)
		cfg.Epochs = sc.LongEpochs
		cfg.RR = rr
		cfg.AnomalyEvery = 60
		w, err := sim.Generate(cfg)
		if err != nil {
			panic(err)
		}
		row := []string{f1(rr)}
		for _, d := range deltas {
			icfg := rfinfer.DefaultConfig()
			icfg.Delta = d
			row = append(row, f1(changeRun(w, icfg, sc).F))
		}
		cal, err := CalibrateDelta(cfg, rfinfer.DefaultConfig(), sc.Interval)
		if err != nil {
			panic(err)
		}
		icfg := rfinfer.DefaultConfig()
		icfg.Delta = cal
		row = append(row, fmt.Sprintf("%.1f (δ=%.0f)", changeRun(w, icfg, sc).F, cal))
		tbl.Rows = append(tbl.Rows, row)
	}
	return tbl
}

// Table4 reproduces Table 4: change-detection F-measure and inference time
// for different recent-history sizes H̄ and read rates.
func Table4(sc Scale) Table {
	sizes := []model.Epoch{300, 400, 500, 600, 700}
	tbl := Table{
		ID:     "Table 4",
		Title:  "F-measure (%) and time (ms) vs recent history size H̄",
		Header: []string{"RR", "metric"},
	}
	for _, h := range sizes {
		tbl.Header = append(tbl.Header, fmt.Sprint(h))
	}
	for _, rr := range []float64{0.6, 0.7, 0.8, 0.9} {
		cfg := baseConfig(sc)
		cfg.Epochs = sc.LongEpochs
		cfg.RR = rr
		cfg.AnomalyEvery = 60
		w, err := sim.Generate(cfg)
		if err != nil {
			panic(err)
		}
		cal, err := CalibrateDelta(cfg, rfinfer.DefaultConfig(), sc.Interval)
		if err != nil {
			panic(err)
		}
		fRow := []string{f1(rr), "F-m.(%)"}
		tRow := []string{"", "Time(ms)"}
		for _, h := range sizes {
			icfg := rfinfer.DefaultConfig()
			icfg.RecentHistory = h
			icfg.Delta = cal
			res := RunSingleSite(w.Single(), icfg, sc.Interval)
			prf := scoreChanges(w, res, sc.Tol)
			fRow = append(fRow, f1(prf.F))
			tRow = append(tRow, fmt.Sprint(res.InferTime.Milliseconds()))
		}
		tbl.Rows = append(tbl.Rows, fRow, tRow)
	}
	return tbl
}

// scoreChanges matches a run's detections against a world's ground truth.
func scoreChanges(w *sim.World, res SingleResult, tol model.Epoch) metrics.PRF {
	var truth, det []metrics.ChangeEvent
	for _, ch := range w.Changes {
		truth = append(truth, metrics.ChangeEvent{Object: ch.Object, T: ch.T})
	}
	for _, d := range res.Detections {
		det = append(det, metrics.ChangeEvent{Object: d.Object, T: d.At})
	}
	return metrics.MatchChanges(truth, det, tol)
}

// Table5 reproduces Table 5: communication costs of the centralized
// approach vs the None and CR (collapsed weights) migration methods.
func Table5(sc Scale) Table {
	tbl := Table{
		ID:     "Table 5",
		Title:  "communication costs (bytes) of centralized vs state migration",
		Header: []string{"RR", "Centralized", "None", "CR", "reduction"},
	}
	for _, rr := range []float64{0.6, 0.7, 0.8, 0.9} {
		w := distWorld(sc, rr, 0)
		cl := dist.NewCluster(w, dist.MigrateWeights, rfinfer.DefaultConfig())
		cl.Workers = sc.Workers
		res, err := cl.Replay(sc.Interval)
		if err != nil {
			panic(err)
		}
		red := "-"
		if res.Costs.Bytes > 0 {
			red = fmt.Sprintf("%.1fx", float64(res.CentralizedBytes)/float64(res.Costs.Bytes))
		}
		tbl.Rows = append(tbl.Rows, []string{
			f1(rr),
			fmt.Sprint(res.CentralizedBytes),
			"0",
			fmt.Sprint(res.Costs.Bytes),
			red,
		})
	}
	return tbl
}

// TableQueries reproduces the Section 5.4 table: F-measure and query state
// size (with and without centroid sharing) for Q1 and Q2 across read rates.
func TableQueries(sc Scale) Table {
	tbl := Table{
		ID:     "Section 5.4",
		Title:  "query accuracy and state migration size",
		Header: []string{"query", "metric", "RR=0.6", "RR=0.7", "RR=0.8", "RR=0.9"},
	}
	type cells struct{ fm, raw, shared []string }
	run := func(q2 bool) cells {
		var c cells
		for _, rr := range []float64{0.6, 0.7, 0.8, 0.9} {
			w := distWorld(sc, rr, 90)
			p := DefaultQueryParams(sc.Interval, model.Epoch(w.Cfg.TransitTime))
			out, err := RunQueryExperiment(w, rfinfer.DefaultConfig(), p, q2)
			if err != nil {
				panic(err)
			}
			c.fm = append(c.fm, f1(out.F.F))
			c.raw = append(c.raw, fmt.Sprint(out.RawBytes))
			c.shared = append(c.shared, fmt.Sprint(out.SharedBytes))
		}
		return c
	}
	q1 := run(false)
	tbl.Rows = append(tbl.Rows,
		append([]string{"Q1", "F-m.(%)"}, q1.fm...),
		append([]string{"", "State w/o share(B)"}, q1.raw...),
		append([]string{"", "State w. share(B)"}, q1.shared...),
	)
	q2 := run(true)
	tbl.Rows = append(tbl.Rows,
		append([]string{"Q2", "F-m.(%)"}, q2.fm...),
		append([]string{"", "State w/o share(B)"}, q2.raw...),
		append([]string{"", "State w. share(B)"}, q2.shared...),
	)
	return tbl
}

// Scalability reproduces the Section 5.3 scalability study: items per
// warehouse vs total inference time, for static and mobile shelf readers.
// A deployment "keeps up with stream speed" when the inference time per
// interval stays below the interval.
func Scalability(sc Scale) Table {
	tbl := Table{
		ID:     "Section 5.3",
		Title:  "scalability: inference time vs items per warehouse",
		Header: []string{"items/site", "readers", "infer ms/interval", "stream-speed"},
	}
	for _, mult := range []int{1, 2, 4} {
		for _, mobile := range []bool{false, true} {
			cfg := baseConfig(sc)
			cfg.Epochs = sc.Epochs
			cfg.ItemsPerCase = sc.ItemsPerCase * mult
			cfg.MobileShelves = mobile
			if mobile {
				cfg.Shelves = 30
			}
			w, err := sim.Generate(cfg)
			if err != nil {
				panic(err)
			}
			res := RunSingleSite(w.Single(), rfinfer.DefaultConfig(), sc.Interval)
			perInterval := res.InferTime / time.Duration(res.Runs)
			items := len(w.Single().Items())
			// Count only items in steady state (present mid-trace).
			kind := "static"
			if mobile {
				kind = "mobile"
			}
			ok := "yes"
			if perInterval > time.Duration(sc.Interval)*time.Second {
				ok = "no"
			}
			tbl.Rows = append(tbl.Rows, []string{
				fmt.Sprint(items), kind,
				fmt.Sprint(perInterval.Milliseconds()), ok,
			})
		}
	}
	return tbl
}

// ClusterScaling measures the cluster runtime: wall time of the
// multi-warehouse replay at different worker budgets, with the migration
// counters the runtime exposes via Cluster.Stats(). Results are
// bit-identical at every worker count; only the wall time changes.
func ClusterScaling(sc Scale) Table {
	tbl := Table{
		ID:     "Cluster",
		Title:  "multi-site replay: wall time vs workers (collapsed-weights migration)",
		Header: []string{"workers", "wall ms", "cont %", "migrations", "state KB"},
	}
	w := distWorld(sc, 0.8, 0)
	workers := []int{1, 2, 4, 0} // 0 = GOMAXPROCS
	for _, n := range workers {
		cl := dist.NewCluster(w, dist.MigrateWeights, rfinfer.DefaultConfig())
		cl.Workers = n
		start := time.Now()
		res, err := cl.Replay(sc.Interval)
		if err != nil {
			panic(err)
		}
		wall := time.Since(start)
		tot := cl.Stats().Totals()
		label := fmt.Sprint(n)
		if n == 0 {
			label = "max"
		}
		tbl.Rows = append(tbl.Rows, []string{
			label,
			fmt.Sprint(wall.Milliseconds()),
			f2(res.ContErr.Rate()),
			fmt.Sprint(tot.MigrationsOut),
			fmt.Sprint((tot.BytesOut + 1023) / 1024),
		})
	}
	return tbl
}

// Sensitivity reproduces the Appendix C.4 sensitivity studies: overlap rate
// and container capacity.
func Sensitivity(sc Scale) Table {
	tbl := Table{
		ID:     "Appendix C.4",
		Title:  "sensitivity to overlap rate and container capacity (RR=0.7)",
		Header: []string{"parameter", "value", "containment %", "location %"},
	}
	for _, or := range []float64{0.2, 0.4, 0.6, 0.8} {
		cfg := baseConfig(sc)
		cfg.RR = 0.7
		cfg.OR = or
		w, err := sim.Generate(cfg)
		if err != nil {
			panic(err)
		}
		res := RunSingleSite(w.Single(), rfinfer.DefaultConfig(), sc.Interval)
		tbl.Rows = append(tbl.Rows, []string{
			"overlap", f1(or), f2(res.ContErr.Rate()), f2(res.LocErr.Rate()),
		})
	}
	for _, cap := range []int{5, 20, 50, 100} {
		cfg := baseConfig(sc)
		cfg.RR = 0.7
		cfg.ItemsPerCase = cap
		// Keep the tag population roughly constant.
		cfg.InjectEvery = 60 * cap / 20
		if cfg.InjectEvery < 30 {
			cfg.InjectEvery = 30
		}
		w, err := sim.Generate(cfg)
		if err != nil {
			panic(err)
		}
		res := RunSingleSite(w.Single(), rfinfer.DefaultConfig(), sc.Interval)
		tbl.Rows = append(tbl.Rows, []string{
			"capacity", fmt.Sprint(cap), f2(res.ContErr.Rate()), f2(res.LocErr.Rate()),
		})
	}
	return tbl
}

// Ablations quantifies the design choices DESIGN.md calls out: the
// location read-off aggregation depth (LocEpochs), candidate pruning
// (MaxCandidates), and the EM iteration cap.
func Ablations(sc Scale) Table {
	tbl := Table{
		ID:     "Ablations",
		Title:  "design-choice ablations (RR=0.7)",
		Header: []string{"knob", "value", "containment %", "location %", "infer ms"},
	}
	cfg := baseConfig(sc)
	cfg.RR = 0.7
	w, err := sim.Generate(cfg)
	if err != nil {
		panic(err)
	}
	tr := w.Single()

	for _, k := range []int{1, 3, 5} {
		icfg := rfinfer.DefaultConfig()
		icfg.LocEpochs = k
		res := RunSingleSite(tr, icfg, sc.Interval)
		tbl.Rows = append(tbl.Rows, []string{
			"LocEpochs", fmt.Sprint(k), f2(res.ContErr.Rate()), f2(res.LocErr.Rate()),
			fmt.Sprint(res.InferTime.Milliseconds()),
		})
	}
	for _, k := range []int{2, 4, 8, 16} {
		icfg := rfinfer.DefaultConfig()
		icfg.MaxCandidates = k
		res := RunSingleSite(tr, icfg, sc.Interval)
		tbl.Rows = append(tbl.Rows, []string{
			"MaxCandidates", fmt.Sprint(k), f2(res.ContErr.Rate()), f2(res.LocErr.Rate()),
			fmt.Sprint(res.InferTime.Milliseconds()),
		})
	}
	for _, k := range []int{1, 2, 10} {
		icfg := rfinfer.DefaultConfig()
		icfg.MaxIters = k
		res := RunSingleSite(tr, icfg, sc.Interval)
		tbl.Rows = append(tbl.Rows, []string{
			"MaxIters", fmt.Sprint(k), f2(res.ContErr.Rate()), f2(res.LocErr.Rate()),
			fmt.Sprint(res.InferTime.Milliseconds()),
		})
	}
	return tbl
}
