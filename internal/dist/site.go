// The whole-world replay and the migration cost accounting.
//
// There is one checkpoint schedule, the Feed's (feed.go): ingest every
// site, migrate the due departures in global departure order on one
// goroutine, infer every site, then the tail. A replay pushes a whole
// pre-generated world through that same Feed, so the batch path of the
// paper's experiments and the streaming path internal/serve runs cannot
// drift apart, and ReplaySequential is the same code at a pool of one.
package dist

import "rfidtrack/internal/model"

// replay streams the world's readings and departures into a feed of the
// given worker budget and advances it through every checkpoint. On an error
// the Result covers the checkpoints that completed.
func (c *Cluster) replay(interval model.Epoch, workers int) (Result, error) {
	f, err := c.openFeed(interval, workers)
	if err != nil {
		return Result{}, err
	}
	err = func() error {
		for s, evs := range buildFeeds(c.World) {
			for _, ev := range evs {
				if err := f.Observe(s, ev.T, ev.ID, ev.Mask); err != nil {
					return err
				}
			}
		}
		for _, d := range c.deps {
			if err := f.Depart(d); err != nil {
				return err
			}
		}
		return f.AdvanceTo(c.World.Epochs / interval * interval)
	}()
	res, _ := f.Close() // cannot fail: the feed's only Close; releases the pool
	return res, err
}

// accountSend records one encoded transfer on the sending side: per-link
// engine bytes (Table 5 accounting), query-state bytes, and the source
// site's counters.
func accountSend(d Departure, payload []byte, engineBytes, queryBytes int, links map[linkKey]Costs, queryTotal *int, out *SiteStats) {
	if engineBytes > 0 {
		lk := linkKey{from: d.From, to: d.To}
		lc := links[lk]
		lc.Bytes += engineBytes
		lc.Messages++
		links[lk] = lc
	}
	*queryTotal += queryBytes
	if len(payload) > 0 {
		out.MigrationsOut++
		out.BytesOut += len(payload)
	}
}

// accountReceive records one transfer on the receiving side.
func accountReceive(payload []byte, in *SiteStats) {
	if len(payload) > 0 {
		in.MigrationsIn++
		in.BytesIn += len(payload)
	}
}
