// The subscription registry: the matching half of the delivery tier. Every
// subscriber declares a Filter; the registry indexes each subscriber under
// its most selective dimension — tag filters in one of alertShards
// hash-sharded maps, then site, then pattern, with only true match-alls in
// the broadcast list — so dispatching one alert wakes the subscribers
// that could match it, not every subscriber. A consumer-scale fan-out
// (100k tag subscriptions) therefore costs one shard-map lookup per
// alert, and subscribers on distinct shards register and match without
// contending on a single lock.
package serve

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"rfidtrack/internal/model"
	"rfidtrack/internal/stream"
)

// Filter selects which alerts a subscription receives. The zero value
// matches nothing useful — use MatchAll (or ParseSubscriptionFilter) and
// narrow from there. A negative Site or Tag means "any"; an empty Pattern
// means "any"; MinSpan 0 means "any span".
type Filter struct {
	// Site restricts to alerts raised by one site (-1 = any).
	Site int `json:"site"`
	// Tag restricts to one object (-1 = any).
	Tag model.TagID `json:"tag"`
	// Pattern restricts to one query's registry key, e.g. "q1" ("" = any).
	Pattern string `json:"pattern,omitempty"`
	// MinSpan restricts to episodes of at least this many epochs
	// (Last - First >= MinSpan; 0 = any).
	MinSpan model.Epoch `json:"min_span,omitempty"`
}

// MatchAll returns the filter that matches every alert.
func MatchAll() Filter { return Filter{Site: -1, Tag: -1} }

// Match reports whether a passes the filter.
func (f Filter) Match(a Alert) bool {
	if f.Site >= 0 && a.Site != f.Site {
		return false
	}
	if f.Tag >= 0 && a.Tag != f.Tag {
		return false
	}
	if f.Pattern != "" && a.Pattern != f.Pattern {
		return false
	}
	if f.MinSpan > 0 && a.Last-a.First < f.MinSpan {
		return false
	}
	return true
}

// Encode renders the filter in the canonical spec format accepted by
// ParseSubscriptionFilter: comma-separated key:value parts in the fixed
// order tag, site, pattern, min_span, with "any" dimensions omitted. The
// match-all filter encodes as the empty string, and parsing an encoded
// filter yields the original back.
func (f Filter) Encode() string {
	var parts []string
	if f.Tag >= 0 {
		parts = append(parts, "tag:"+strconv.Itoa(int(f.Tag)))
	}
	if f.Site >= 0 {
		parts = append(parts, "site:"+strconv.Itoa(f.Site))
	}
	if f.Pattern != "" {
		parts = append(parts, "pattern:"+f.Pattern)
	}
	if f.MinSpan > 0 {
		parts = append(parts, "min_span:"+strconv.Itoa(int(f.MinSpan)))
	}
	return strings.Join(parts, ",")
}

// maxFilterValue bounds numeric filter dimensions; tags, sites and epochs
// are all int32-ranged across the runtime.
const maxFilterValue = 1<<31 - 1

// ParseSubscriptionFilter parses a subscription spec — what a client puts
// in GET /alerts?filter= — into a Filter. The spec is zero or more
// comma-separated key:value parts; keys are tag, site, pattern and
// min_span, a repeated key takes its last value, and the empty spec is
// the match-all filter. It never panics on any input.
func ParseSubscriptionFilter(spec string) (Filter, error) {
	f := MatchAll()
	if strings.TrimSpace(spec) == "" {
		return f, nil
	}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		key, val, ok := strings.Cut(part, ":")
		if !ok {
			return Filter{}, fmt.Errorf("serve: filter part %q: want key:value", part)
		}
		switch key {
		case "tag":
			n, err := parseFilterInt(key, val)
			if err != nil {
				return Filter{}, err
			}
			f.Tag = model.TagID(n)
		case "site":
			n, err := parseFilterInt(key, val)
			if err != nil {
				return Filter{}, err
			}
			f.Site = n
		case "pattern":
			if val == "" {
				return Filter{}, fmt.Errorf("serve: filter pattern: empty")
			}
			if len(val) > stream.MaxAlertPatternKey {
				return Filter{}, fmt.Errorf("serve: filter pattern: longer than %d bytes", stream.MaxAlertPatternKey)
			}
			f.Pattern = val
		case "min_span":
			n, err := parseFilterInt(key, val)
			if err != nil {
				return Filter{}, err
			}
			f.MinSpan = model.Epoch(n)
		default:
			return Filter{}, fmt.Errorf("serve: filter key %q: unknown", key)
		}
	}
	return f, nil
}

// parseFilterInt parses a numeric filter value, bounded to [0, int32 max].
func parseFilterInt(key, val string) (int, error) {
	n, err := strconv.Atoi(val)
	if err != nil {
		return 0, fmt.Errorf("serve: filter %s %q: not a number", key, val)
	}
	if n < 0 || n > maxFilterValue {
		return 0, fmt.Errorf("serve: filter %s %d: out of range", key, n)
	}
	return n, nil
}

// alertShards is the number of tag-hash shards in the registry's per-tag
// index. Tag filters dominate at consumer scale (one subscription per
// tracked object), so they get the sharded structure; site and pattern
// have low cardinality and share one map each.
const alertShards = 16

// tagShard is one shard of the per-tag subscription index.
type tagShard struct {
	mu      sync.RWMutex
	byTag   map[model.TagID][]*subscriber
	matches atomic.Int64 // alerts matched to a subscriber via this shard
}

// tagShardOf maps a tag to its shard (Fibonacci hash on the top bits, so
// consecutive tag IDs spread instead of clustering).
func tagShardOf(tag model.TagID) int {
	return int((uint32(tag) * 2654435761) >> 28 % alertShards)
}

// registry is the subscription index plus its delivery accounting. The
// publisher calls dispatch once per fresh alert; registration routes each
// subscriber under its most selective filter dimension so dispatch visits
// candidates, not the whole population.
type registry struct {
	log *alertLog

	tags [alertShards]tagShard

	mu        sync.RWMutex
	bySite    map[int][]*subscriber
	byPattern map[string][]*subscriber
	all       []*subscriber // true match-alls (and span-only filters)
	members   map[*subscriber]struct{}

	scanMatches atomic.Int64 // matches found via the site/pattern/all lists
}

func newRegistry(log *alertLog) *registry {
	r := &registry{
		log:       log,
		bySite:    make(map[int][]*subscriber),
		byPattern: make(map[string][]*subscriber),
		members:   make(map[*subscriber]struct{}),
	}
	for i := range r.tags {
		r.tags[i].byTag = make(map[model.TagID][]*subscriber)
	}
	return r
}

// register attaches a new subscriber with cursor position from (alerts
// with Seq >= from are delivered; older ones are the consumer's history).
// The caller owns the returned subscriber and must shutdown it.
func (r *registry) register(f Filter, from int) *subscriber {
	if from < 0 {
		from = 0
	}
	sub := &subscriber{
		reg:    r,
		f:      f,
		next:   from,
		notify: make(chan struct{}, 1),
		done:   make(chan struct{}),
	}
	r.mu.Lock()
	r.members[sub] = struct{}{}
	switch {
	case f.Tag >= 0:
		sh := &r.tags[tagShardOf(f.Tag)]
		sh.mu.Lock()
		sh.byTag[f.Tag] = append(sh.byTag[f.Tag], sub)
		sh.mu.Unlock()
	case f.Site >= 0:
		r.bySite[f.Site] = append(r.bySite[f.Site], sub)
	case f.Pattern != "":
		r.byPattern[f.Pattern] = append(r.byPattern[f.Pattern], sub)
	default:
		r.all = append(r.all, sub)
	}
	r.mu.Unlock()
	return sub
}

// unregister detaches sub from its index list. Idempotent.
func (r *registry) unregister(sub *subscriber) {
	f := sub.f
	r.mu.Lock()
	delete(r.members, sub)
	switch {
	case f.Tag >= 0:
		sh := &r.tags[tagShardOf(f.Tag)]
		sh.mu.Lock()
		sh.byTag[f.Tag] = removeSub(sh.byTag[f.Tag], sub)
		if len(sh.byTag[f.Tag]) == 0 {
			delete(sh.byTag, f.Tag)
		}
		sh.mu.Unlock()
	case f.Site >= 0:
		r.bySite[f.Site] = removeSub(r.bySite[f.Site], sub)
		if len(r.bySite[f.Site]) == 0 {
			delete(r.bySite, f.Site)
		}
	case f.Pattern != "":
		r.byPattern[f.Pattern] = removeSub(r.byPattern[f.Pattern], sub)
		if len(r.byPattern[f.Pattern]) == 0 {
			delete(r.byPattern, f.Pattern)
		}
	default:
		r.all = removeSub(r.all, sub)
	}
	r.mu.Unlock()
}

func removeSub(subs []*subscriber, target *subscriber) []*subscriber {
	for i, s := range subs {
		if s == target {
			subs[i] = subs[len(subs)-1]
			subs[len(subs)-1] = nil
			return subs[:len(subs)-1]
		}
	}
	return subs
}

// dispatch wakes every subscriber whose filter matches one fresh alert:
// candidates come from the alert's tag shard, its site list, its pattern
// list and the broadcast list. A wakeup never blocks, so dispatch — and
// therefore the scheduler publishing the alert — is never held up by a
// slow consumer; each subscriber reads the alert from the log itself.
func (r *registry) dispatch(a Alert) {
	var matched int64
	sh := &r.tags[tagShardOf(a.Tag)]
	sh.mu.RLock()
	for _, sub := range sh.byTag[a.Tag] {
		if sub.f.Match(a) {
			sub.signal()
			matched++
		}
	}
	sh.mu.RUnlock()
	if matched > 0 {
		sh.matches.Add(matched)
	}
	var scanned int64
	r.mu.RLock()
	for _, subs := range [][]*subscriber{r.bySite[a.Site], r.byPattern[a.Pattern], r.all} {
		for _, sub := range subs {
			if sub.f.Match(a) {
				sub.signal()
				scanned++
			}
		}
	}
	r.mu.RUnlock()
	if scanned > 0 {
		r.scanMatches.Add(scanned)
	}
}

// wakeAll signals every subscriber; the server calls it after closing the
// alert log so pumps and pollers re-check the terminal condition.
func (r *registry) wakeAll() {
	r.mu.RLock()
	for sub := range r.members {
		sub.signal()
	}
	r.mu.RUnlock()
}

// stats snapshots the delivery tier's accounting; see DeliveryStats.
func (r *registry) stats() DeliveryStats {
	ds := DeliveryStats{
		ScanMatches:  r.scanMatches.Load(),
		ShardMatches: make([]int64, alertShards),
	}
	ds.Enqueued = ds.ScanMatches
	for i := range r.tags {
		ds.ShardMatches[i] = r.tags[i].matches.Load()
		ds.Enqueued += ds.ShardMatches[i]
	}
	logLen := r.log.len()
	minNext := logLen
	r.mu.RLock()
	ds.Subscribers = len(r.members)
	for sub := range r.members {
		minNext = min(minNext, sub.cursor())
	}
	r.mu.RUnlock()
	ds.SlowestLag = logLen - minNext
	return ds
}
