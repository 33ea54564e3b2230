package main

import (
	"bytes"
	"fmt"
	"strconv"

	"rfidtrack/internal/dist"
	"rfidtrack/internal/model"
	"rfidtrack/internal/query"
	"rfidtrack/internal/rfinfer"
	"rfidtrack/internal/serve"
	"rfidtrack/internal/sim"
	"rfidtrack/internal/stream"
)

// worldSpec is the deployment a workload runs: the simulator flags the
// daemon is started with (it regenerates the same world from them — the
// seed reaches it only as its layout) and the scheduler settings.
type worldSpec struct {
	Sites, Path, Items, Epochs, Anomaly int
	Interval                            int    // Δ, stream seconds
	Strategy                            string // rfidtrackd -strategy
	Query                               bool   // cold-chain query attached
}

// simConfig is the spec as the simulator sees it; everything not listed is
// the daemon's flag default, so the harness and the daemon build the same
// world.
func (ws worldSpec) simConfig(seed int64) sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Seed = seed
	cfg.Warehouses = ws.Sites
	cfg.PathLength = ws.Path
	cfg.ItemsPerCase = ws.Items
	cfg.Epochs = model.Epoch(ws.Epochs)
	cfg.AnomalyEvery = ws.Anomaly
	return cfg
}

// daemonArgs renders the spec as rfidtrackd flags.
func (ws worldSpec) daemonArgs(seed int64) []string {
	args := []string{
		"-sites", strconv.Itoa(ws.Sites), "-path", strconv.Itoa(ws.Path),
		"-items", strconv.Itoa(ws.Items), "-epochs", strconv.Itoa(ws.Epochs),
		"-anomaly", strconv.Itoa(ws.Anomaly), "-seed", strconv.FormatInt(seed, 10),
		"-interval", strconv.Itoa(ws.Interval), "-strategy", ws.Strategy,
	}
	if !ws.Query {
		args = append(args, "-no-query")
	}
	return args
}

func (ws worldSpec) strategy() dist.Strategy {
	switch ws.Strategy {
	case "none":
		return dist.MigrateNone
	case "readings":
		return dist.MigrateReadings
	case "full":
		return dist.MigrateFull
	default:
		return dist.MigrateWeights
	}
}

// newCluster builds a fresh cluster over the world the way rfidtrackd
// does.
func (ws worldSpec) newCluster(w *sim.World) *dist.Cluster {
	return dist.NewCluster(w, ws.strategy(), rfinfer.DefaultConfig())
}

// event is one entry of the flattened ingestion stream: a reading
// (depart == nil) or a departure.
type event struct {
	site   int
	r      dist.Reading
	depart *dist.Departure
}

// flatten merges every site's case and item readings and the world's
// departures into one stream ordered by epoch — within an epoch, readings
// in (site, tag) order, then departures. It is serve.WorldEvents' order
// built with a counting sort over epochs: the comparison sort there costs
// seconds on the multi-million-reading worlds, and set-up time is a gated
// metric.
func flatten(w *sim.World) []event {
	deps := dist.WorldDepartures(w)
	count := make([]int, int(w.Epochs)+1)
	visit := func(emit func(t model.Epoch, ev event)) {
		for s, tr := range w.Sites {
			for i := range tr.Tags {
				tg := &tr.Tags[i]
				if tg.Kind == model.KindPallet {
					continue
				}
				for _, rd := range tg.Readings {
					emit(rd.T, event{site: s, r: dist.Reading{T: rd.T, ID: tg.ID, Mask: rd.Mask}})
				}
			}
		}
		for i := range deps {
			emit(deps[i].At, event{depart: &deps[i]})
		}
	}
	n := 0
	visit(func(t model.Epoch, _ event) { count[t]++; n++ })
	start := make([]int, len(count))
	for t, at := 0, 0; t < len(count); t++ {
		start[t] = at
		at += count[t]
	}
	out := make([]event, n)
	visit(func(t model.Epoch, ev event) {
		out[start[t]] = ev
		start[t]++
	})
	return out
}

// body is one pre-encoded request: the timed window only writes it and
// waits for the status.
type body struct {
	path        string // /ingest or /ingest/bin
	contentType string
	data        []byte
	readings    int         // readings carried (departures do not count)
	lastT       model.Epoch // highest reading epoch carried, -1 with none: only readings move stream time
}

const (
	ndjson = "application/x-ndjson"
	octets = "application/octet-stream"
)

// jsonBody encodes events as the JSON lines POST /ingest takes.
func jsonBody(evs []event) (body, error) {
	wire := make([]serve.Event, len(evs))
	b := body{path: "/ingest", contentType: ndjson, lastT: -1}
	for i, ev := range evs {
		if ev.depart != nil {
			wire[i] = serve.Depart(*ev.depart)
			continue
		}
		wire[i] = serve.Reading(ev.site, ev.r.T, ev.r.ID, ev.r.Mask)
		b.readings++
		b.lastT = max(b.lastT, ev.r.T)
	}
	var buf bytes.Buffer
	if err := serve.WriteEvents(&buf, wire); err != nil {
		return body{}, err
	}
	b.data = buf.Bytes()
	return b, nil
}

// eventTime is the stream-time position of an event.
func (ev event) time() model.Epoch {
	if ev.depart != nil {
		return ev.depart.At
	}
	return ev.r.T
}

// encodeJSON cuts the stream into /ingest bodies of batch events each.
// When align is positive no body crosses a multiple of it (see
// encodeFrames).
func encodeJSON(evs []event, batch int, align model.Epoch) ([]body, error) {
	var out []body
	for i := 0; i < len(evs); {
		end := min(i+batch, len(evs))
		for j := i + 1; align > 0 && j < end; j++ {
			if evs[j].time()/align != evs[i].time()/align {
				end = j
			}
		}
		b, err := jsonBody(evs[i:end])
		if err != nil {
			return nil, err
		}
		out = append(out, b)
		i = end
	}
	return out, nil
}

// frameBody encodes a run of readings as one multi-section RFB1 frame, a
// section per site. One frame per run matters: the daemon publishes stream
// time once per request, after bucketing every section, so a checkpoint
// cannot seal between two sites of the same time-ordered run.
func frameBody(fb *stream.FrameBuilder, sites int, run []event) body {
	fb.Reset()
	b := body{path: "/ingest/bin", contentType: octets, readings: len(run)}
	for s := 0; s < sites; s++ {
		open := false
		for i := range run {
			if run[i].site != s {
				continue
			}
			if !open {
				fb.BeginSection(s)
				open = true
			}
			fb.Add(run[i].r.T, run[i].r.ID, run[i].r.Mask)
		}
	}
	b.lastT = run[len(run)-1].r.T
	b.data = append([]byte(nil), fb.Finish()...)
	return b
}

// encodeFrames cuts the stream into binary frames of frame readings each.
// Departures have no binary form: those met while a frame fills ride one
// JSON body sent just before it, so every departure reaches the daemon
// ahead of any reading that could close its checkpoint. When align is
// positive no frame crosses a multiple of it, which the serial ledger run
// needs to ingest one Δ-interval at a time.
func encodeFrames(evs []event, sites, frame int, align model.Epoch) ([]body, error) {
	var (
		out  []body
		fb   stream.FrameBuilder
		run  []event
		deps []event
	)
	flush := func() error {
		if len(deps) > 0 {
			b, err := jsonBody(deps)
			if err != nil {
				return err
			}
			out = append(out, b)
			deps = deps[:0]
		}
		if len(run) > 0 {
			out = append(out, frameBody(&fb, sites, run))
			run = run[:0]
		}
		return nil
	}
	for _, ev := range evs {
		if ev.depart != nil {
			deps = append(deps, ev)
			continue
		}
		if align > 0 && len(run) > 0 && ev.r.T/align != run[0].r.T/align {
			if err := flush(); err != nil {
				return nil, err
			}
		}
		run = append(run, ev)
		if len(run) == frame {
			if err := flush(); err != nil {
				return nil, err
			}
		}
	}
	if err := flush(); err != nil {
		return nil, err
	}
	return out, nil
}

// reference is what a correct run must reproduce: the sequential replay's
// Result and, with a query attached, its alert transcript in the order the
// daemon publishes (checkpoint by checkpoint, sites ascending within one).
type reference struct {
	result dist.Result
	alerts []serve.Alert
	// perCheckpoint[k] is how many alerts checkpoint k (boundary (k+1)Δ)
	// raised; it maps an alert's sequence number back to its checkpoint.
	perCheckpoint []int
}

// computeReference runs Cluster.ReplaySequential at the spec's Δ and
// strategy. The transcript is captured the way the daemon stages alerts:
// an OnMatch callback per site engine, with the checkpoint hook (which
// fires for site 0 first, before that site's query is fed) marking where
// each checkpoint starts.
func computeReference(ws worldSpec, w *sim.World) (reference, error) {
	var ref reference
	c := ws.newCluster(w)
	if ws.Query {
		q := dist.ColdChainQuery(w, model.Epoch(ws.Interval))
		c.Query = &dist.ClusterQuery{
			New: func(site int) *query.Engine {
				eng := q.New(site)
				key := eng.PatternKey()
				eng.SetOnMatch(func(m stream.Match) {
					ref.alerts = append(ref.alerts, serve.Alert{
						Seq: len(ref.alerts), Site: site, Tag: m.Tag,
						First: m.First, Last: m.Last,
						Values:  append([]float64(nil), m.Values...),
						Pattern: key,
					})
					ref.perCheckpoint[len(ref.perCheckpoint)-1]++
				})
				return eng
			},
			Feed: q.Feed,
		}
		c.Hooks.OnCheckpoint = func(site int, _ *rfinfer.Engine, _ model.Epoch) {
			if site == 0 {
				ref.perCheckpoint = append(ref.perCheckpoint, 0)
			}
		}
	}
	res, err := c.ReplaySequential(model.Epoch(ws.Interval))
	if err != nil {
		return reference{}, fmt.Errorf("reference replay: %w", err)
	}
	ref.result = res
	return ref, nil
}

// checkpointOfSeq returns, for every alert sequence number, the index of
// the checkpoint that raised it, given the alerts raised per checkpoint.
func checkpointOfSeq(perCheckpoint []int) []int {
	var of []int
	for k, n := range perCheckpoint {
		for i := 0; i < n; i++ {
			of = append(of, k)
		}
	}
	return of
}
