// The whole-world replay, the interval cut it feeds checkpoints from, and
// the migration cost accounting.
//
// There is one checkpoint schedule, the Feed's (feed.go): ingest every
// site, migrate the due departures in global departure order on one
// goroutine, infer every site, then the tail. A replay cuts a whole
// pre-generated world into per-site interval batches and hands them to that
// same Feed one checkpoint at a time, so the batch path of the paper's
// experiments and the streaming path internal/serve runs cannot drift
// apart, and ReplaySequential is the same code at a pool of one.
package dist

import (
	"fmt"

	"rfidtrack/internal/model"
	"rfidtrack/internal/trace"
)

// Intervals cuts a trace's readings into one batch per whole Δ-interval:
// batch k holds the case and item readings of epochs [k·Δ, (k+1)·Δ) in
// (epoch, tag) order — what the checkpoint at (k+1)·Δ ingests. The
// trailing partial interval is dropped, since no checkpoint covers it, and
// so are pallet readings (pallet-level containment is the hierarchical
// extension of Appendix A.4). The interval must be positive.
func Intervals(tr *trace.Trace, interval model.Epoch) [][]Reading {
	if interval <= 0 {
		panic(fmt.Sprintf("dist: Intervals needs a positive interval, got %d", interval))
	}
	batches := make([][]Reading, tr.Epochs/interval)
	end := model.Epoch(len(batches)) * interval
	for i := range tr.Tags {
		tg := &tr.Tags[i]
		if tg.Kind == model.KindPallet {
			continue
		}
		for _, rd := range tg.Readings {
			if rd.T >= 0 && rd.T < end {
				k := rd.T / interval
				batches[k] = append(batches[k], Reading{T: rd.T, ID: tg.ID, Mask: rd.Mask})
			}
		}
	}
	for _, b := range batches {
		sortReadings(b)
	}
	return batches
}

// replay cuts every site's trace into interval batches and advances a feed
// of the given worker budget through every checkpoint, after handing it the
// world's departures. On an error the Result covers the checkpoints that
// completed.
func (c *Cluster) replay(interval model.Epoch, workers int) (Result, error) {
	f, err := c.openFeed(interval, workers)
	if err != nil {
		return Result{}, err
	}
	err = func() error {
		for _, d := range c.deps {
			if err := f.Depart(d); err != nil {
				return err
			}
		}
		sites := make([][][]Reading, len(c.World.Sites))
		for s, tr := range c.World.Sites {
			sites[s] = Intervals(tr, interval)
		}
		due := make([][]Reading, len(sites))
		for k := range c.World.Epochs / interval {
			for s := range due {
				due[s] = sites[s][k]
			}
			if err := f.AdvanceWith(due); err != nil {
				return err
			}
		}
		return nil
	}()
	_ = f.Close() // cannot fail: the feed's only Close; releases the pool
	return f.Result(), err
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
