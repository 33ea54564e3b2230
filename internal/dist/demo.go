// The canonical cold-chain demo query: one construction shared by the
// rfidtrackd daemon, the examples, and the e2e/serve determinism tests,
// so they all exercise exactly the same continuous query.
package dist

import (
	"math"

	"rfidtrack/internal/model"
	"rfidtrack/internal/query"
	"rfidtrack/internal/rfinfer"
	"rfidtrack/internal/sim"
	"rfidtrack/internal/stream"
)

// ColdChainQuery builds the demo deployment's per-site exposure query:
// the paper's Q1 ("frozen product out of any freezer at temperature above
// threshold for a duration") over a fixed manufacturer database — every
// third item is a frozen product, every second case a freezer — with
// cold-room shelves (odd shelf index) near 4°C and everything else near
// room temperature. Attach the result to Cluster.Query (or
// serve.Config.Query); interval is the deployment's Δ between inference
// snapshots.
func ColdChainQuery(w *sim.World, interval model.Epoch) *ClusterQuery {
	frozen := func(id model.TagID) bool { return int(id)%3 == 0 }
	freezer := func(id model.TagID) bool { return int(id)%2 == 0 }
	tempAt := func(loc model.Loc, t model.Epoch) float64 {
		if int(loc) >= 2 && int(loc) < 2+w.Cfg.Shelves && int(loc)%2 == 1 {
			return 4 + 0.5*math.Sin(float64(t)/97+float64(loc))
		}
		return 20 + 0.5*math.Sin(float64(t)/97+float64(loc))
	}
	qcfg := query.Q1Config(3*interval-interval/2, interval)
	qcfg.MaxGap = 2*interval + model.Epoch(w.Cfg.TransitTime)
	attrs := map[string]string{"type": "frozen"}
	return &ClusterQuery{
		New: func(site int) *query.Engine { return query.New(qcfg, freezer) },
		Feed: func(site int, q *query.Engine, eng *rfinfer.Engine, evalAt model.Epoch, owns func(model.TagID) bool) {
			for loc := 0; loc < len(w.Sites[site].Readers); loc++ {
				q.PushSensor(stream.Tuple{
					T: evalAt, Tag: -1, Loc: model.Loc(loc), Sensor: int32(loc),
					Temp: tempAt(model.Loc(loc), evalAt),
				})
			}
			for _, ev := range eng.Snapshot(evalAt) {
				if !frozen(ev.Tag) || !owns(ev.Tag) {
					continue
				}
				q.PushObject(stream.Tuple{
					T: ev.T, Tag: ev.Tag, Loc: ev.Loc, Container: ev.Container,
					Sensor: -1, Attrs: attrs,
				})
			}
		},
	}
}
