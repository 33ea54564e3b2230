// Command rfidsim generates a synthetic RFID trace (the paper's supply-
// chain workload of Appendix C.1, or a lab trace of Appendix C.2) and
// writes the raw reading stream to a file in the library's binary wire
// format, printing a summary of the generated world.
//
// With -serve it instead acts as a load generator for rfidtrackd: the
// world's readings and departures are streamed to the daemon's /ingest
// endpoint as JSON lines, in stream-time order, optionally rate-limited.
// With -per-site it emulates the real edge topology: one concurrent
// producer per site posting that site's readings as binary RFB1 frames
// over /ingest/bin, departures in-band over /ingest — start the
// daemon with -watermark to absorb the cross-producer skew this creates.
//
// -retry turns either streaming mode into the kill/restart chaos client:
// a failed post (daemon killed, restarting, or briefly unreachable) is
// re-sent with backoff until the window closes, like a real edge relay
// that buffers while its collector is down. Re-sent batches are safe:
// ingest is idempotent (readings merge, duplicate departures dedup), so
// `kill -9` the daemon mid-stream, restart it with the same -data-dir,
// and the stream completes with a bit-identical result.
//
// Usage:
//
//	rfidsim -epochs 3600 -rr 0.8 -anomaly 60 -o trace.bin
//	rfidsim -lab T5 -o lab.bin
//	rfidsim -sites 2 -path 2 -serve http://localhost:8080 -rate 50000
//	rfidsim -sites 4 -path 2 -serve http://localhost:8080 -per-site
//	rfidsim -sites 2 -serve http://localhost:8080 -retry 30s   # chaos client
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rfidtrack/internal/dist"
	"rfidtrack/internal/model"
	"rfidtrack/internal/serve"
	"rfidtrack/internal/sim"
	"rfidtrack/internal/trace"
)

func main() {
	var (
		epochs   = flag.Int("epochs", 1500, "trace duration in seconds")
		rr       = flag.Float64("rr", 0.8, "main read rate")
		or       = flag.Float64("or", 0.5, "shelf overlap rate")
		items    = flag.Int("items", 20, "items per case")
		shelves  = flag.Int("shelves", 8, "shelf readers per warehouse")
		anomaly  = flag.Int("anomaly", 0, "containment change interval (0 = none)")
		sites    = flag.Int("sites", 1, "number of warehouses")
		path     = flag.Int("path", 1, "warehouses each pallet visits")
		mobile   = flag.Bool("mobile", false, "mobile shelf readers")
		seed     = flag.Int64("seed", 1, "generation seed")
		lab      = flag.String("lab", "", "generate a lab trace (T1..T8) instead")
		out      = flag.String("o", "", "output file for the reading stream (optional)")
		siteFlag = flag.Int("site", 0, "which site's stream to write")
		serveURL = flag.String("serve", "", "stream the world to a running rfidtrackd at this base URL; a comma-separated list fans out across a peer cluster (readings to each site's owner, departures broadcast)")
		siteMap  = flag.String("site-map", "", "cluster mode: comma-separated site->peer assignment matching the daemons' -site-map (default: contiguous blocks)")
		rate     = flag.Float64("rate", 0, "events per second to stream (0 = as fast as the daemon accepts)")
		batch    = flag.Int("batch", 512, "events per ingest request when streaming")
		perSite  = flag.Bool("per-site", false, "stream each site concurrently as binary frames over /ingest/bin (set -watermark on the daemon to absorb producer skew)")
		bin      = flag.Bool("bin", false, "ship readings over the binary /ingest/bin frame codec instead of JSON (departures still ride /ingest; -per-site always does)")
		skew     = flag.Int("skew", 300, "per-site mode: max stream-time lead (epochs) of any producer over the slowest; keep at or below the daemon's -watermark")
		drain    = flag.Bool("drain", true, "POST /drain after streaming so the daemon finishes the trailing interval")
		retry    = flag.Duration("retry", 0, "chaos mode: re-send failed posts with backoff for this long (covers a daemon kill -9 + restart); 0 fails fast")
		follow   = flag.Bool("follow", false, "subscribe to the daemon's alert feed while streaming (cluster mode merges every peer's feed), printing each alert and the final resume cursor")
		filter   = flag.String("filter", "", "subscription filter for -follow, e.g. tag:7,site:1,pattern:q1,min_span:40 (empty = every alert)")
	)
	flag.Parse()

	var w *sim.World
	var err error
	if *lab != "" {
		var params *sim.LabTraceParams
		for _, p := range sim.LabTraces() {
			if p.Name == *lab {
				pp := p
				params = &pp
				break
			}
		}
		if params == nil {
			log.Fatalf("unknown lab trace %q (want T1..T8)", *lab)
		}
		_, w, err = sim.LabTrace(*params, *seed)
	} else {
		cfg := sim.DefaultConfig()
		cfg.Epochs = model.Epoch(*epochs)
		cfg.RR = *rr
		cfg.OR = *or
		cfg.ItemsPerCase = *items
		cfg.Shelves = *shelves
		cfg.AnomalyEvery = *anomaly
		cfg.Warehouses = *sites
		cfg.PathLength = *path
		cfg.MobileShelves = *mobile
		cfg.Seed = *seed
		w, err = sim.Generate(cfg)
	}
	if err != nil {
		log.Fatal(err)
	}

	for s, tr := range w.Sites {
		fmt.Printf("site %d: %d readers, %d tags (%d cases, %d items), %d raw readings\n",
			s, len(tr.Readers), len(tr.Tags), len(tr.Cases()), len(tr.Items()), tr.NumReadings())
	}
	fmt.Printf("ground-truth containment changes: %d\n", len(w.Changes))

	if *serveURL != "" {
		stopFollow := func() {}
		if *follow {
			stopFollow = followAlerts(*serveURL, *filter)
		}
		var err error
		if strings.Contains(*serveURL, ",") {
			err = streamWorldCluster(*serveURL, *siteMap, w, *rate, *batch, *drain, *retry)
		} else if *perSite {
			err = streamWorldPerSite(*serveURL, w, *rate, *batch, model.Epoch(*skew), *drain, *retry)
		} else {
			err = streamWorld(*serveURL, w, *rate, *batch, *drain, *retry, *bin)
		}
		if err != nil {
			log.Fatal(err)
		}
		stopFollow()
	}

	if *out != "" {
		if *siteFlag < 0 || *siteFlag >= len(w.Sites) {
			log.Fatalf("site %d out of range", *siteFlag)
		}
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := trace.EncodeReadings(f, w.Sites[*siteFlag], nil); err != nil {
			log.Fatal(err)
		}
		st, _ := f.Stat()
		fmt.Printf("wrote %s (%d bytes, gzip would be %d)\n",
			*out, st.Size(), trace.GzipSize(w.Sites[*siteFlag], nil))
	}
}

// followAlerts attaches the durable-cursor consumer loop to the daemon's
// alert feed (serve.Client.Follow), or — when baseURL is a comma-separated
// peer list — the cluster-merged subscription (MultiClient.FollowAll),
// printing each alert as the continuous queries raise it. The returned
// stop function cancels the follow after a short grace for the feed's
// tail and waits for it, then prints the alert count and the resume
// cursor(s) a later -follow run could continue from.
func followAlerts(baseURL, filterSpec string) (stop func()) {
	flt, err := serve.ParseSubscriptionFilter(filterSpec)
	if err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var count atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		if strings.Contains(baseURL, ",") {
			var urls []string
			for _, u := range strings.Split(baseURL, ",") {
				urls = append(urls, strings.TrimRight(strings.TrimSpace(u), "/"))
			}
			mc := serve.NewMultiClient(urls, nil)
			cursors, err := mc.FollowAll(ctx, flt, nil, func(peer int, a serve.Alert) {
				count.Add(1)
				fmt.Printf("ALERT peer=%d #%d site=%d tag=%d exposed %d..%d\n",
					peer, a.Seq, a.Site, a.Tag, a.First, a.Last)
			})
			if err != nil {
				log.Printf("follow: %v", err)
			}
			fmt.Printf("followed %d alerts across %d peers; resume cursors %v\n", count.Load(), len(urls), cursors)
			return
		}
		client := &serve.Client{BaseURL: baseURL}
		cursor, err := client.Follow(ctx, flt, "", func(a serve.Alert) {
			count.Add(1)
			fmt.Printf("ALERT #%d site=%d tag=%d exposed %d..%d\n", a.Seq, a.Site, a.Tag, a.First, a.Last)
		})
		if err != nil {
			log.Printf("follow: %v", err)
		}
		fmt.Printf("followed %d alerts; resume cursor %q\n", count.Load(), cursor)
	}()
	return func() {
		time.Sleep(500 * time.Millisecond) // grace for the feed's tail after the drain
		cancel()
		<-done
	}
}

// streamWorldPerSite is the sharded load-generator mode: one concurrent
// producer per site ships that site's readings in stream-time order
// as binary frames over /ingest/bin, while the main goroutine delivers
// the global departure stream over /ingest. This exercises the daemon the
// way real edge readers would — independent per-site streams with skew —
// so the daemon needs a watermark to avoid counting stragglers late.
// Real readers are coupled to wall time; blasting at full speed is not,
// so producers self-pace: none runs more than skew epochs of stream time
// ahead of the slowest, keeping the skew inside what the daemon's
// watermark absorbs.
func streamWorldPerSite(baseURL string, w *sim.World, rate float64, batchSize int, skew model.Epoch, drain bool, retry time.Duration) error {
	if batchSize < 1 {
		batchSize = 1
	}
	// Per-site reading streams, each in (epoch, tag) stream order.
	streams := make([][]dist.Reading, len(w.Sites))
	total := 0
	for s, tr := range w.Sites {
		for i := range tr.Tags {
			tg := &tr.Tags[i]
			if tg.Kind == model.KindPallet {
				continue
			}
			for _, rd := range tg.Readings {
				streams[s] = append(streams[s], dist.Reading{T: rd.T, ID: tg.ID, Mask: rd.Mask})
			}
		}
		slices.SortFunc(streams[s], func(a, b dist.Reading) int {
			if a.T != b.T {
				return int(a.T) - int(b.T)
			}
			return int(a.ID) - int(b.ID)
		})
		total += len(streams[s])
	}
	deps := dist.WorldDepartures(w)
	fmt.Printf("streaming %d readings over %d per-site producers (+%d departures) to %s\n",
		total, len(streams), len(deps), baseURL)

	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, len(streams))
	// pos[s] is the last stream epoch producer s has fully delivered (the
	// extra slot is the departure stream, which paces like any producer).
	// Before sending a batch ending at epoch T, a producer waits until
	// every peer has delivered through T-skew; because each batch spans at
	// most skew epochs, the producer holding the minimum position can
	// always send, so the pacing cannot deadlock. A finished producer
	// parks at MaxInt64 so it never holds the others back.
	pos := make([]atomic.Int64, len(streams)+1)
	minOthers := func(self int) int64 {
		mn := int64(1<<63 - 1)
		for s := range pos {
			if s == self {
				continue
			}
			if v := pos[s].Load(); v < mn {
				mn = v
			}
		}
		return mn
	}
	for s := range streams {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			defer pos[s].Store(1<<63 - 1)
			client := &serve.Client{BaseURL: baseURL}
			stream := streams[s]
			siteRate := rate / float64(len(streams))
			sent := 0
			for i := 0; i < len(stream); {
				// Chunk by count and, when pacing, by epoch span ≤ skew.
				end := i + 1
				for end < len(stream) && end-i < batchSize &&
					(skew <= 0 || stream[end].T < stream[i].T+skew) {
					end++
				}
				frontier := int64(stream[end-1].T)
				// This stream has nothing before its next epoch, so it has
				// trivially delivered through nextStart-1 — publishing that
				// lets peers cross shared quiet gaps without deadlocking.
				if through := int64(stream[i].T) - 1; through > pos[s].Load() {
					pos[s].Store(through)
				}
				// Compare as frontier-skew to keep a parked-at-MaxInt64 peer
				// from overflowing the sum.
				for skew > 0 && frontier-int64(skew) > minOthers(s) {
					time.Sleep(time.Millisecond)
				}
				if err := postRetry(retry, func() error {
					_, err := client.IngestBin(s, stream[i:end])
					return err
				}); err != nil {
					errs[s] = err
					return
				}
				pos[s].Store(frontier)
				sent = end
				i = end
				if siteRate > 0 {
					ahead := time.Duration(float64(sent)/siteRate*float64(time.Second)) - time.Since(start)
					if ahead > 0 {
						time.Sleep(ahead)
					}
				}
			}
		}(s)
	}
	// Departures ride the mixed /ingest path in global time order, paced
	// like a producer so they never outrun the daemon's stream-time skip
	// bound (which would count them invalid and silently skip migrations).
	depErr := func() error {
		depIdx := len(streams)
		defer pos[depIdx].Store(1<<63 - 1)
		client := &serve.Client{BaseURL: baseURL}
		depEvents := make([]serve.Event, 0, len(deps))
		for _, d := range deps {
			depEvents = append(depEvents, serve.Depart(d))
		}
		for i := 0; i < len(depEvents); {
			end := i + 1
			for end < len(depEvents) && end-i < batchSize &&
				(skew <= 0 || depEvents[end].At < depEvents[i].At+skew) {
				end++
			}
			frontier := int64(depEvents[end-1].At)
			if through := int64(depEvents[i].At) - 1; through > pos[depIdx].Load() {
				pos[depIdx].Store(through)
			}
			for skew > 0 && frontier-int64(skew) > minOthers(depIdx) {
				time.Sleep(time.Millisecond)
			}
			if err := postRetry(retry, func() error {
				_, err := client.Ingest(depEvents[i:end])
				return err
			}); err != nil {
				return err
			}
			pos[depIdx].Store(frontier)
			i = end
		}
		return nil
	}()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if depErr != nil {
		return depErr
	}
	elapsed := time.Since(start)
	fmt.Printf("streamed %d readings in %s (%.0f readings/s across %d producers)\n",
		total, elapsed.Round(time.Millisecond), float64(total)/elapsed.Seconds(), len(streams))
	return reportDaemon(&serve.Client{BaseURL: baseURL}, drain, retry)
}

// streamWorldCluster is the multi-node load-generator mode: fan the
// world's time-ordered event stream out across an rfidtrackd peer cluster
// through serve.MultiClient (readings to each site's owning daemon,
// departures broadcast to all), then drain every peer concurrently and
// print the merged cluster Result.
func streamWorldCluster(urlSpec, siteMap string, w *sim.World, rate float64, batchSize int, drain bool, retry time.Duration) error {
	if batchSize < 1 {
		batchSize = 1
	}
	var urls []string
	for _, u := range strings.Split(urlSpec, ",") {
		urls = append(urls, strings.TrimRight(strings.TrimSpace(u), "/"))
	}
	owner := dist.DefaultSiteMap(len(w.Sites), len(urls))
	if siteMap != "" {
		var err error
		if owner, err = dist.ParseSiteMap(siteMap, len(w.Sites), len(urls)); err != nil {
			return err
		}
	}
	mc := serve.NewMultiClient(urls, owner)
	events := serve.WorldEvents(w, dist.WorldDepartures(w))
	fmt.Printf("streaming %d events across %d peers (site map %v)\n", len(events), len(urls), owner)
	start := time.Now()
	sent := 0
	for i := 0; i < len(events); i += batchSize {
		end := min(i+batchSize, len(events))
		if err := postRetry(retry, func() error { return mc.Ingest(events[i:end]) }); err != nil {
			return err
		}
		sent = end
		if rate > 0 {
			ahead := time.Duration(float64(sent)/rate*float64(time.Second)) - time.Since(start)
			if ahead > 0 {
				time.Sleep(ahead)
			}
		}
	}
	elapsed := time.Since(start)
	fmt.Printf("streamed %d events in %s (%.0f events/s)\n",
		sent, elapsed.Round(time.Millisecond), float64(sent)/elapsed.Seconds())
	if drain {
		stats, err := mc.DrainAll(0)
		if err != nil {
			return err
		}
		for p, st := range stats {
			fmt.Printf("peer %d: %d observed, %d late, %d invalid, %d checkpoints, %d alerts\n",
				p, st.Feed.Observed, st.Feed.Late, st.Invalid, st.Feed.Checkpoints, st.Alerts)
			if st.Peers != nil {
				fmt.Printf("peer %d: sent %d migrations, received %d, %d socket bytes out / %d in\n",
					p, st.Peers.MigrationsSent, st.Peers.MigrationsReceived,
					st.Peers.SocketBytesSent, st.Peers.SocketBytesRecv)
			}
		}
	}
	res, err := mc.MergedResult()
	if err != nil {
		return err
	}
	fmt.Printf("merged: containment %.2f%%, location %.2f%%; migrated %d bytes in %d messages (centralized would ship %d)\n",
		res.ContErr.Rate(), res.LocErr.Rate(), res.Costs.Bytes, res.Costs.Messages, res.CentralizedBytes)
	return nil
}

// postRetry runs send, re-trying with exponential backoff until the chaos
// window closes. Re-sending a batch whose acknowledgement was lost is safe:
// the daemon's ingest is idempotent. A zero window fails fast. Only
// retryable failures re-send — transport errors and 5xx statuses, the
// daemon-down and daemon-draining signatures. A 4xx status is a permanent
// client error (malformed batch, wrong Content-Type): retrying it would
// re-post the same broken request until the whole chaos window expired, so
// it fails immediately instead.
func postRetry(window time.Duration, send func() error) error {
	err := send()
	if err == nil || window <= 0 || !serve.Retryable(err) {
		return err
	}
	deadline := time.Now().Add(window)
	backoff := 50 * time.Millisecond
	for {
		if time.Now().After(deadline) {
			return err
		}
		time.Sleep(backoff)
		if backoff < time.Second {
			backoff *= 2
		}
		if err = send(); err == nil || !serve.Retryable(err) {
			return err
		}
	}
}

// reportDaemon drains (or polls) the daemon and prints its counters.
func reportDaemon(client *serve.Client, drain bool, retry time.Duration) error {
	var st serve.Stats
	err := postRetry(retry, func() error {
		var derr error
		if drain {
			st, derr = client.Drain(0)
		} else {
			st, derr = client.Stats()
		}
		return derr
	})
	if err != nil {
		return err
	}
	fmt.Printf("daemon: %d observed, %d late, %d invalid, %d checkpoints, %d alerts\n",
		st.Feed.Observed, st.Feed.Late, st.Invalid, st.Feed.Checkpoints, st.Alerts)
	return nil
}

// streamWorld is the load-generator mode: ship the world's readings and
// ground-truth departures to a live rfidtrackd in stream-time order. With
// bin, each chunk's readings travel as multi-section binary frames and
// only the departures ride the JSON /ingest path.
func streamWorld(baseURL string, w *sim.World, rate float64, batchSize int, drain bool, retry time.Duration, bin bool) error {
	if batchSize < 1 {
		batchSize = 1
	}
	client := &serve.Client{BaseURL: baseURL}
	events := serve.WorldEvents(w, dist.WorldDepartures(w))
	fmt.Printf("streaming %d events to %s", len(events), baseURL)
	if rate > 0 {
		fmt.Printf(" at %.0f events/s", rate)
	}
	fmt.Println()

	var bySite [][]dist.Reading
	var depChunk []serve.Event
	start := time.Now()
	sent := 0
	for i := 0; i < len(events); i += batchSize {
		end := min(i+batchSize, len(events))
		if err := postRetry(retry, func() error {
			if bin {
				return postChunkBin(client, events[i:end], &bySite, &depChunk)
			}
			_, err := client.Ingest(events[i:end])
			return err
		}); err != nil {
			return err
		}
		sent = end
		if rate > 0 {
			// Pace against the wall clock so bursts do not accumulate.
			ahead := time.Duration(float64(sent)/rate*float64(time.Second)) - time.Since(start)
			if ahead > 0 {
				time.Sleep(ahead)
			}
		}
	}
	elapsed := time.Since(start)
	fmt.Printf("streamed %d events in %s (%.0f events/s)\n",
		sent, elapsed.Round(time.Millisecond), float64(sent)/elapsed.Seconds())
	return reportDaemon(client, drain, retry)
}

// postChunkBin ships one mixed-event chunk through the binary fast path,
// preserving the stream's time order across HTTP requests: each maximal
// run of consecutive readings travels as ONE multi-section frame (a
// section per site, IngestBinAll), and departures split the chunk and
// ride /ingest in place. The daemon publishes stream time once per
// request, after bucketing everything in it — so by the time a Δ
// checkpoint can seal, every earlier event of the chunk has been
// delivered. Posting each site as its own request instead would let a
// post-boundary site advance stream time and seal a checkpoint before a
// pre-boundary site's readings arrive whenever a chunk straddles an
// interval boundary: readings counted late that the JSON path delivers
// on time. The scratch slices are reused across chunks.
func postChunkBin(client *serve.Client, events []serve.Event, bySite *[][]dist.Reading, depChunk *[]serve.Event) error {
	for s := range *bySite {
		(*bySite)[s] = (*bySite)[s][:0]
	}
	*depChunk = (*depChunk)[:0]
	flushReadings := func() error {
		n := 0
		for s := range *bySite {
			n += len((*bySite)[s])
		}
		if n == 0 {
			return nil
		}
		_, err := client.IngestBinAll(*bySite)
		for s := range *bySite {
			(*bySite)[s] = (*bySite)[s][:0]
		}
		return err
	}
	flushDeps := func() error {
		if len(*depChunk) == 0 {
			return nil
		}
		_, err := client.Ingest(*depChunk)
		*depChunk = (*depChunk)[:0]
		return err
	}
	for _, ev := range events {
		if ev.Type != serve.TypeReading {
			if err := flushReadings(); err != nil {
				return err
			}
			*depChunk = append(*depChunk, ev)
			continue
		}
		if err := flushDeps(); err != nil {
			return err
		}
		for ev.Site >= len(*bySite) {
			*bySite = append(*bySite, nil)
		}
		(*bySite)[ev.Site] = append((*bySite)[ev.Site], dist.Reading{T: ev.T, ID: ev.Tag, Mask: ev.Mask})
	}
	if err := flushReadings(); err != nil {
		return err
	}
	return flushDeps()
}
