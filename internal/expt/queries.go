package expt

import (
	"fmt"
	"math"

	"rfidtrack/internal/dist"
	"rfidtrack/internal/metrics"
	"rfidtrack/internal/model"
	"rfidtrack/internal/query"
	"rfidtrack/internal/rfinfer"
	"rfidtrack/internal/sim"
	"rfidtrack/internal/stream"
)

// QueryParams configures the Section 5.4 experiment environment: which
// items are monitored frozen products, which cases are freezers, and the
// temperature field over reader locations.
type QueryParams struct {
	// FrozenPct of items carry type=frozen and are monitored.
	FrozenPct int
	// FreezerPct of cases are freezer cases.
	FreezerPct int
	// WarmTemp is the ambient temperature of warm locations; ColdTemp the
	// temperature of cold-room shelves (odd shelf indexes).
	WarmTemp, ColdTemp float64
	// Duration is the exposure horizon (the paper's 6/10 hours, scaled).
	Duration model.Epoch
	// Interval is the inference/snapshot interval.
	Interval model.Epoch
	// MaxGap is the episode-continuation allowance; it must cover the
	// snapshot interval plus inter-site transit.
	MaxGap model.Epoch
}

// DefaultQueryParams scales the Section 5.4 environment to a trace length.
// The exposure duration deliberately avoids being an exact multiple of the
// snapshot interval: a duration of k*interval puts every real k-snapshot
// exposure exactly on the strict `span > duration` boundary, where a single
// extra or missing event flips the outcome.
func DefaultQueryParams(interval, transit model.Epoch) QueryParams {
	return QueryParams{
		FrozenPct:  30,
		FreezerPct: 50,
		WarmTemp:   20,
		ColdTemp:   4,
		Duration:   3*interval - interval/2,
		Interval:   interval,
		MaxGap:     2*interval + transit,
	}
}

// Frozen reports whether an item is a monitored frozen product.
func (p QueryParams) Frozen(id model.TagID) bool { return int(id)%100 < p.FrozenPct }

// Freezer reports whether a case keeps its contents frozen.
func (p QueryParams) Freezer(id model.TagID) bool { return int(id)%100 < p.FreezerPct }

// TempAt returns the ambient temperature at a reader location: cold-room
// shelves (odd shelf index) sit at ColdTemp, everything else at WarmTemp,
// with a small deterministic wiggle.
func (p QueryParams) TempAt(loc model.Loc, t model.Epoch, shelves int) float64 {
	base := p.WarmTemp
	if int(loc) >= 2 && int(loc) < 2+shelves && int(loc)%2 == 1 {
		base = p.ColdTemp
	}
	return base + 0.5*math.Sin(float64(t)/97+float64(loc))
}

// QueryOutcome reports one query's accuracy and migrated state sizes.
type QueryOutcome struct {
	// F scores inferred alerts against ground-truth alerts (object level).
	F metrics.PRF
	// RawBytes is the total migrated query state without sharing;
	// SharedBytes with centroid-based sharing (the two "State" rows of the
	// Section 5.4 table).
	RawBytes, SharedBytes int
	// TruthAlerts and InferredAlerts count distinct alerted objects.
	TruthAlerts, InferredAlerts int
}

// RunQueryExperiment reproduces the Section 5.4 experiment for one query on
// a simulated multi-site world: distributed inference feeds per-site query
// engines; query state migrates (and is centroid-shared per container) as
// objects move; accuracy is scored against the same query evaluated on
// ground-truth events.
func RunQueryExperiment(w *sim.World, inferCfg rfinfer.Config, p QueryParams, q2 bool) (QueryOutcome, error) {
	var out QueryOutcome
	shelves := w.Cfg.Shelves
	attrs := map[string]string{"type": "frozen"}

	var qcfg query.Config
	if q2 {
		qcfg = query.Q2Config(p.Duration, p.Interval)
	} else {
		qcfg = query.Q1Config(p.Duration, p.Interval)
	}
	qcfg.MaxGap = p.MaxGap

	// Ground truth: the same query over true locations and containment.
	truthEng := query.New(qcfg, p.Freezer)

	// Per-site inferred-side query engines.
	siteQ := make([]*query.Engine, len(w.Sites))
	for s := range siteQ {
		siteQ[s] = query.New(qcfg, p.Freezer)
	}

	cl := dist.NewCluster(w, dist.MigrateWeights, inferCfg)

	// Buffered query-state departures, grouped per (site, container) to
	// measure centroid sharing at the exit point.
	type groupKey struct {
		from int
		cont model.TagID
	}
	type pendingState struct {
		tag   model.TagID
		to    int
		state stream.SeqState
	}
	groups := make(map[groupKey][]pendingState)

	flush := func() error {
		for _, pend := range groups {
			states := make([][]byte, len(pend))
			for i, ps := range pend {
				states[i] = stream.AppendState(nil, &ps.state)
			}
			out.RawBytes += query.TotalRaw(states)
			bundle := query.Share(states)
			out.SharedBytes += bundle.Size()
			restored, err := bundle.Restore()
			if err != nil {
				return fmt.Errorf("expt: centroid sharing not lossless: %w", err)
			}
			for i, ps := range pend {
				dec, err := stream.DecodeState(model.NewReader(restored[i]))
				if err != nil {
					return err
				}
				siteQ[ps.to].Pattern().SetState(ps.tag, dec)
			}
		}
		clear(groups)
		return nil
	}

	cl.Hooks.OnDepart = func(d dist.Departure) {
		if !p.Frozen(d.Object) {
			return
		}
		st := siteQ[d.From].Pattern().State(d.Object)
		if st == nil {
			return
		}
		cont := cl.Engines[d.From].Container(d.Object)
		groups[groupKey{from: d.From, cont: cont}] = append(groups[groupKey{from: d.From, cont: cont}],
			pendingState{tag: d.Object, to: d.To, state: *st})
		siteQ[d.From].Pattern().DropState(d.Object)
	}

	var hookErr error
	cl.Hooks.OnCheckpoint = func(s int, eng *rfinfer.Engine, evalAt model.Epoch) {
		// Migrated query states are delivered before the destination's
		// checkpoint of the same epoch (flush is idempotent per group).
		if err := flush(); err != nil && hookErr == nil {
			hookErr = err
		}
		// Sensor tuples: one per reader location.
		for loc := 0; loc < len(w.Sites[s].Readers); loc++ {
			siteQ[s].PushSensor(stream.Tuple{
				T: evalAt, Tag: -1, Loc: model.Loc(loc), Sensor: int32(loc),
				Temp: p.TempAt(model.Loc(loc), evalAt, shelves),
			})
		}
		// Inferred object events for products owned by this site.
		for _, ev := range eng.Snapshot(evalAt) {
			if !p.Frozen(ev.Tag) || cl.ONSLookup(ev.Tag) != s {
				continue
			}
			siteQ[s].PushObject(stream.Tuple{
				T: ev.T, Tag: ev.Tag, Loc: ev.Loc, Container: ev.Container,
				Sensor: -1, Attrs: attrs,
			})
		}
		// Ground-truth events, fed once per checkpoint (site 0 turn).
		if s != 0 {
			return
		}
		for loc := 0; loc < len(w.Sites[0].Readers); loc++ {
			truthEng.PushSensor(stream.Tuple{
				T: evalAt, Tag: -1, Loc: model.Loc(loc), Sensor: int32(loc),
				Temp: p.TempAt(model.Loc(loc), evalAt, shelves),
			})
		}
		for site := range w.Sites {
			for i := range w.Sites[site].Tags {
				tg := &w.Sites[site].Tags[i]
				if tg.Kind != model.KindItem || !p.Frozen(tg.ID) {
					continue
				}
				loc := tg.TrueLocAt(evalAt)
				if loc == model.NoLoc {
					continue
				}
				truthEng.PushObject(stream.Tuple{
					T: evalAt, Tag: tg.ID, Loc: loc, Container: tg.TrueContAt(evalAt),
					Sensor: -1, Attrs: attrs,
				})
			}
		}
	}

	if _, err := cl.Replay(p.Interval); err != nil {
		return out, err
	}
	if hookErr != nil {
		return out, hookErr
	}
	if err := flush(); err != nil {
		return out, err
	}

	truth := truthEng.AlertedTags()
	inferred := make(map[model.TagID]bool)
	for _, q := range siteQ {
		for tag := range q.AlertedTags() {
			inferred[tag] = true
		}
	}
	tp, fp := 0, 0
	for tag := range inferred {
		if truth[tag] {
			tp++
		} else {
			fp++
		}
	}
	fn := 0
	for tag := range truth {
		if !inferred[tag] {
			fn++
		}
	}
	out.F = metrics.FMeasure(tp, fp, fn)
	out.TruthAlerts = len(truth)
	out.InferredAlerts = len(inferred)
	return out, nil
}
