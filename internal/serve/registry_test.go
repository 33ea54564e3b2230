package serve

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"rfidtrack/internal/model"
	"rfidtrack/internal/stream"
)

// publishAndDispatch mimics Server.publishAlert for registry-level tests:
// append to the log, fan out through the registry.
func publishAndDispatch(l *alertLog, r *registry, site int, pattern string, m stream.Match) Alert {
	a, fresh := l.publish(site, pattern, m)
	if fresh {
		r.dispatch(a)
	}
	return a
}

// drainSub collects everything a subscriber delivers without waiting.
func drainSub(sub *subscriber) []Alert { return drainBatches(sub, maxPollLimit) }

// drainBatches reads a subscriber in batches of at most max without
// waiting, until a read returns nothing with the cursor at the log's tail
// (a read may return nothing short of the tail when it examined a whole
// scan chunk without a match).
func drainBatches(sub *subscriber, max int) []Alert {
	var out []Alert
	for {
		batch, _ := sub.poll(max, 0)
		if len(batch) == 0 && sub.cursor() >= sub.reg.log.len() {
			return out
		}
		out = append(out, batch...)
	}
}

// bruteForceInput is one population TestRegistryMatchesBruteForce checks.
type bruteForceInput struct {
	name    string
	seed    int64
	nAlerts int
	// hotTag gives tag 0 three quarters of the alerts, so one tag's
	// history spans more than one logScanChunk.
	hotTag bool
	// recovered builds the log the way recovery does: restore of a
	// snapshot prefix, restoreTail of the WAL's post-snapshot alerts, then
	// publishes that first re-fire the restored tail and then append.
	recovered bool
	// randomCursors registers each subscriber at a random point of the
	// publish stream with a random cursor, instead of all at 0 up front.
	randomCursors bool
	// batch bounds each read; 0 reads up to maxPollLimit, <0 a random
	// size in [1,16] per subscriber.
	batch int
}

// TestRegistryMatchesBruteForce is the indexed-matching correctness bar:
// over randomized alert and filter populations, every subscriber — however
// the registry routed it (tag map, site list, pattern list, broadcast) —
// must deliver exactly the alerts a brute-force scan of the log through
// its filter selects, in order.
func TestRegistryMatchesBruteForce(t *testing.T) {
	inputs := []bruteForceInput{
		{name: "seed=1", seed: 1, nAlerts: 1500},
		{name: "seed=2", seed: 2, nAlerts: 1500},
		{name: "seed=77", seed: 77, nAlerts: 1500},
		{name: "recovered", seed: 3, nAlerts: 1500, recovered: true, randomCursors: true},
		{name: "random-cursors", seed: 4, nAlerts: 1500, randomCursors: true},
		{name: "hot-tag", seed: 5, nAlerts: 6000, hotTag: true, randomCursors: true, batch: -1},
	}
	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) { checkRegistryBruteForce(t, in) })
	}
}

func checkRegistryBruteForce(t *testing.T, in bruteForceInput) {
	patterns := []string{"q1", "q2", "exposure:t>12:d600"}
	rng := rand.New(rand.NewSource(in.seed))
	l := newAlertLog()
	const nSubs, nTags, nSites = 200, 60, 5

	// Random filters across every routing class, including composites
	// (tag+pattern, site+min_span, ...) that the index alone cannot
	// satisfy and must finish with the residual Filter.Match.
	filters := make([]Filter, nSubs)
	froms := make([]int, nSubs)
	steps := make([]int, nSubs) // publish index the subscriber attaches before
	for i := range filters {
		f := MatchAll()
		if rng.Intn(2) == 0 {
			f.Tag = model.TagID(rng.Intn(nTags))
			if in.hotTag && rng.Intn(2) == 0 {
				f.Tag = 0
			}
		}
		if rng.Intn(3) == 0 {
			f.Site = rng.Intn(nSites)
		}
		if rng.Intn(3) == 0 {
			f.Pattern = patterns[rng.Intn(len(patterns))]
		}
		if rng.Intn(4) == 0 {
			f.MinSpan = model.Epoch(rng.Intn(900))
		}
		filters[i] = f
		if in.randomCursors {
			froms[i] = rng.Intn(in.nAlerts + 10)
			steps[i] = rng.Intn(in.nAlerts + 1)
		}
	}

	type pub struct {
		site    int
		pattern string
		m       stream.Match
	}
	pubs := make([]pub, in.nAlerts)
	for i := range pubs {
		m := stream.Match{
			Tag:   model.TagID(rng.Intn(nTags)),
			First: model.Epoch(rng.Intn(600)),
		}
		if in.hotTag && rng.Intn(4) != 0 {
			m.Tag = 0
		}
		m.Last = m.First + model.Epoch(rng.Intn(1200))
		pubs[i] = pub{rng.Intn(nSites), patterns[rng.Intn(len(patterns))], m}
	}

	if in.hotTag {
		hot := 0
		for _, p := range pubs {
			if p.m.Tag == 0 {
				hot++
			}
		}
		if hot <= logScanChunk {
			t.Fatalf("hot tag has %d alerts; a tag cursor must cross a %d-entry scan chunk", hot, logScanChunk)
		}
	}

	var ref, published []Alert
	if in.recovered {
		// The uninterrupted run's log, cut where recovery cuts it: a
		// snapshot holds the first third, the WAL's alert segment the
		// second, and the catch-up checkpoints re-fire the second third
		// before they publish the last.
		orig := newAlertLog()
		for _, p := range pubs {
			orig.publish(p.site, p.pattern, p.m)
		}
		ref = orig.export()
		snap, tail := in.nAlerts/3, 2*in.nAlerts/3
		l.restore(ref[:snap])
		for _, a := range ref[snap:tail] {
			l.restoreTail(a)
		}
		// The snapshot's matches never re-fire: the restored query
		// engines remember them.
		published = ref[:snap:snap]
		pubs = pubs[snap:]
	}
	reg := newRegistry(l)

	subs := make([]*subscriber, nSubs)
	attach := func(step int) {
		for i := range subs {
			if subs[i] == nil && steps[i] <= step {
				subs[i] = reg.register(filters[i], froms[i])
			}
		}
	}
	for _, p := range pubs {
		attach(len(published))
		a := publishAndDispatch(l, reg, p.site, p.pattern, p.m)
		published = append(published, a)
	}
	attach(in.nAlerts)
	if in.recovered && !reflect.DeepEqual(published, ref) {
		t.Fatal("publishing over a recovered log diverged from the uninterrupted run's sequence")
	}

	for i, sub := range subs {
		var want []Alert
		for _, a := range published {
			if a.Seq >= froms[i] && filters[i].Match(a) {
				want = append(want, a)
			}
		}
		batch := in.batch
		if batch == 0 {
			batch = maxPollLimit
		} else if batch < 0 {
			batch = 1 + rng.Intn(16)
		}
		got := drainBatches(sub, batch)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("sub %d (filter %q): indexed delivery diverged from brute force\n got %d alerts: %+v\nwant %d alerts: %+v",
				i, filters[i].Encode(), len(got), got, len(want), want)
		}
		sub.shutdown()
	}

	// Tag-filtered subscribers are found through the tag map, not the
	// broadcast list.
	tagged := 0
	for i, f := range filters {
		if f.Tag < 0 {
			continue
		}
		tagged++
		sub := reg.register(f, 0)
		if !slices.Contains(reg.byTag[f.Tag], sub) || slices.Contains(reg.all, sub) {
			t.Errorf("sub %d (filter %q) is not indexed under its tag", i, f.Encode())
		}
		sub.shutdown()
	}
	if tagged == 0 {
		t.Error("no tag-filtered subscriber to check the index with")
	}
}

// TestRegistryStatsAccounting pins the lag accounting: a subscriber that
// has not read trails the log's tail by every published alert, each match
// counts one wakeup, and once the subscriber has drained everything, in
// order, its lag is back to 0.
func TestRegistryStatsAccounting(t *testing.T) {
	l := newAlertLog()
	reg := newRegistry(l)
	sub := reg.register(MatchAll(), 0)
	const n = 50
	for i := 0; i < n; i++ {
		publishAndDispatch(l, reg, 0, "q1", stream.Match{Tag: 1, First: 0, Last: model.Epoch(i)})
	}
	ds := reg.stats()
	if ds.SlowestLag != n {
		t.Errorf("SlowestLag = %d before the consumer reads, want %d", ds.SlowestLag, n)
	}
	if ds.Enqueued != n {
		t.Errorf("Enqueued = %d after %d matches, want one wakeup each", ds.Enqueued, n)
	}
	got := drainSub(sub)
	if len(got) != n {
		t.Fatalf("consumer delivered %d alerts, want all %d", len(got), n)
	}
	for i, a := range got {
		if a.Seq != i {
			t.Fatalf("alert %d has seq %d; delivery must preserve order", i, a.Seq)
		}
	}
	if ds = reg.stats(); ds.SlowestLag != 0 {
		t.Errorf("SlowestLag = %d after a full drain, want 0", ds.SlowestLag)
	}
	sub.shutdown()
}

// TestPollReadsPastEmptyChunks pins the self-signal: a filtered cursor more
// than one scan chunk behind its next match reads empty chunks first, and
// a waiting poll must keep reading through them rather than sleep until
// the next publish or its wait budget.
func TestPollReadsPastEmptyChunks(t *testing.T) {
	l := newAlertLog()
	reg := newRegistry(l)
	for i := 0; i < 3*logScanChunk; i++ {
		publishAndDispatch(l, reg, 0, "q1", stream.Match{Tag: 1, Last: model.Epoch(i)})
	}
	last := publishAndDispatch(l, reg, 1, "q1", stream.Match{Tag: 1})
	f := MatchAll()
	f.Site = 1
	sub := reg.register(f, 0)
	defer sub.shutdown()
	start := time.Now()
	got, _ := sub.poll(10, 10*time.Second)
	if len(got) != 1 || got[0].Seq != last.Seq {
		t.Fatalf("poll returned %+v, want the one site-1 alert %+v", got, last)
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Errorf("poll took %v to read past 3 empty chunks; it must not wait for a publish", took)
	}
}

// FuzzParseSubscriptionFilter is the parser hardening bar for everything a
// consumer hands the daemon: filter specs and resume cursors. Neither
// parser may panic on any input, and both must round-trip — a parsed
// filter re-encodes to a spec that parses back to the same filter, and a
// decoded cursor re-encodes to the identical token (the canonical-form
// rule that makes cursors safe to compare).
func FuzzParseSubscriptionFilter(f *testing.F) {
	f.Add("", "")
	f.Add("tag:7", "ac1-0-50b9bbb4")
	f.Add("tag:7,site:1,pattern:q1,min_span:40", stream.EncodeAlertCursor(12345))
	f.Add("pattern:exposure:t>0:d600:cont", stream.EncodeAlertCursor(1<<40))
	f.Add("site:-1,tag:99999999999999999999", "ac1-zz-00000000")
	f.Add("min_span:0,min_span:12,,:,junk", "ac1--deadbeef")
	f.Fuzz(func(t *testing.T, spec, cursor string) {
		flt, err := ParseSubscriptionFilter(spec)
		if err == nil {
			enc := flt.Encode()
			back, err2 := ParseSubscriptionFilter(enc)
			if err2 != nil {
				t.Fatalf("Encode of parsed filter %q -> %q does not re-parse: %v", spec, enc, err2)
			}
			if back != flt {
				t.Fatalf("filter round-trip diverged: %q -> %+v -> %q -> %+v", spec, flt, enc, back)
			}
			// A parsed filter must be usable: Match may not panic.
			_ = flt.Match(Alert{Seq: 1, Site: 2, Tag: 3, First: 4, Last: 5, Pattern: "q1"})
		}
		seq, err := stream.DecodeAlertCursor(cursor)
		if err == nil {
			if seq < 0 {
				t.Fatalf("cursor %q decoded to negative seq %d", cursor, seq)
			}
			if re := stream.EncodeAlertCursor(seq); re != cursor {
				t.Fatalf("cursor %q decodes to %d but re-encodes to %q; decode must enforce canonical form", cursor, seq, re)
			}
		}
		// And every sequence number encodes to a token that decodes back.
		tok := stream.EncodeAlertCursor(seq)
		back, err := stream.DecodeAlertCursor(tok)
		if err != nil || back != seq {
			t.Fatalf("EncodeAlertCursor(%d) = %q does not decode back (got %d, %v)", seq, tok, back, err)
		}
	})
}

// TestFilterEncodeMatchAll pins the canonical empty encoding.
func TestFilterEncodeMatchAll(t *testing.T) {
	if enc := MatchAll().Encode(); enc != "" {
		t.Errorf("MatchAll().Encode() = %q, want empty", enc)
	}
	f, err := ParseSubscriptionFilter("  ")
	if err != nil || f != MatchAll() {
		t.Errorf("blank spec parsed to %+v, %v; want MatchAll", f, err)
	}
}

// percentileDuration returns the p-th percentile (0..1) of ds.
func percentileDuration(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(p * float64(len(sorted)-1))
	return sorted[idx]
}

// TestStalledConsumerDoesNotBlockLive is the slow-consumer isolation bar:
// one consumer stops reading entirely (its SSE connection never drains)
// while a live consumer keeps polling; the publisher must never block, the
// stalled consumer must just trail the tail — not back-pressure the pump —
// and the live consumer's per-alert delivery latency must stay bounded.
func TestStalledConsumerDoesNotBlockLive(t *testing.T) {
	l := newAlertLog()
	reg := newRegistry(l)
	stalled := reg.register(MatchAll(), 0)
	live := reg.register(MatchAll(), 0)

	const n = 2000
	// pubTimes[i] is written before alert i is published; the consumer
	// reads it only after receiving alert i through the delivery tier's
	// locks, so the access is ordered.
	pubTimes := make([]time.Time, n)
	var delivered []Alert
	latencies := make([]time.Duration, 0, n)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for len(delivered) < n {
			batch, _ := live.poll(64, 2*time.Second)
			if len(batch) == 0 {
				return
			}
			now := time.Now()
			for _, a := range batch {
				latencies = append(latencies, now.Sub(pubTimes[a.Seq]))
			}
			delivered = append(delivered, batch...)
		}
	}()

	publishStart := time.Now()
	for i := 0; i < n; i++ {
		pubTimes[i] = time.Now()
		publishAndDispatch(l, reg, 0, "q1", stream.Match{Tag: model.TagID(i % 7), First: 0, Last: model.Epoch(i)})
	}
	publishTook := time.Since(publishStart)
	// The stalled consumer never read a thing; if dispatch blocked, the
	// publish loop above could not have finished quickly.
	if publishTook > 5*time.Second {
		t.Fatalf("publishing %d alerts took %v with a stalled subscriber; dispatch must never block", n, publishTook)
	}

	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("live consumer did not finish; a stalled peer is blocking delivery")
	}
	if len(delivered) != n {
		t.Fatalf("live consumer got %d alerts, want %d", len(delivered), n)
	}
	for i, a := range delivered {
		if a.Seq != i {
			t.Fatalf("live consumer alert %d has seq %d; order must be preserved", i, a.Seq)
		}
	}
	if lag := reg.stats().SlowestLag; lag != n {
		t.Errorf("stalled consumer trails the tail by %d, want %d", lag, n)
	}

	// p99 of the live consumer's delivery latency: the stall must not leak
	// into its tail. The bound is deliberately loose (scheduler jitter on a
	// loaded CI box) — the regression this guards is the old unbounded
	// blocking-channel design, where a stalled peer froze deliveryForever.
	p99 := percentileDuration(latencies, 0.99)
	if p99 > 2*time.Second {
		t.Errorf("live consumer p99 delivery latency %v with one stalled peer; want bounded (<2s)", p99)
	}

	// The stalled consumer can still catch up by cursor afterwards.
	got := drainSub(stalled)
	if len(got) != n {
		t.Errorf("stalled consumer caught up to %d alerts, want %d", len(got), n)
	}
	stalled.shutdown()
	live.shutdown()
}

// TestLagFlipDuringPageLosesNothing drives, step by step, the interleaving
// behind the 1-in-30 failure of the test above ("got 1994 alerts, want
// 2000") when subscribers switched between a queue and the log: short
// reads of the log with publishes landing between them. For a match-all
// cursor (log scan) and a tag cursor (posting list), delivery must equal a
// brute-force scan of the log through the filter, in order.
func TestLagFlipDuringPageLosesNothing(t *testing.T) {
	tagged := MatchAll()
	tagged.Tag = 1
	for _, f := range []Filter{MatchAll(), tagged} {
		l := newAlertLog()
		reg := newRegistry(l)
		pub := func() {
			n := l.len()
			publishAndDispatch(l, reg, 0, "q1", stream.Match{Tag: model.TagID(n % 3), Last: model.Epoch(n)})
		}
		pub()
		sub := reg.register(f, 0)
		var got []Alert
		for round := 0; round < 64; round++ {
			batch, done := sub.fetch(2)
			if done {
				t.Fatalf("filter %q: fetch reports done on an open log", f.Encode())
			}
			got = append(got, batch...)
			for i := 0; i < round%4; i++ {
				pub()
			}
		}
		got = append(got, drainBatches(sub, 2)...)
		var want []Alert
		for _, a := range l.export() {
			if f.Match(a) {
				want = append(want, a)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("filter %q: short pages interleaved with publishes delivered %d alerts, brute force selects %d:\n got %+v\nwant %+v",
				f.Encode(), len(got), len(want), got, want)
		}
		sub.shutdown()
	}
}
