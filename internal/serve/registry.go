// The subscription registry: the matching half of the delivery tier. Every
// subscriber declares a Filter; the registry indexes each subscriber under
// its most selective dimension — tag, then site, then pattern, with only
// true match-alls in the broadcast list — so dispatching one alert wakes
// the subscribers that could match it, not every subscriber. A
// consumer-scale fan-out (100k tag subscriptions) therefore costs one map
// lookup per dimension per alert.
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

// registry is the subscription index plus its delivery accounting. The
// publisher calls dispatch once per fresh alert; registration files each
// subscriber under its most selective filter dimension so dispatch visits
// candidates, not the whole population.
type registry struct {
	log *alertLog

	mu        sync.RWMutex
	byTag     map[model.TagID][]*subscriber
	bySite    map[int][]*subscriber
	byPattern map[string][]*subscriber
	all       []*subscriber // true match-alls (and span-only filters)
	members   map[*subscriber]struct{}

	enqueued atomic.Int64 // subscriber wakeups, one per match
}

func newRegistry(log *alertLog) *registry {
	return &registry{
		log:       log,
		byTag:     make(map[model.TagID][]*subscriber),
		bySite:    make(map[int][]*subscriber),
		byPattern: make(map[string][]*subscriber),
		members:   make(map[*subscriber]struct{}),
	}
}

// register attaches a new subscriber with cursor position from (alerts
// with Seq >= from are delivered; older ones are the consumer's history).
// The caller owns the returned subscriber and must shutdown it.
func (r *registry) register(f Filter, from int) *subscriber {
	sub := &subscriber{
		reg:    r,
		f:      f,
		next:   max(from, 0),
		notify: make(chan struct{}, 1),
		done:   make(chan struct{}),
	}
	r.mu.Lock()
	r.members[sub] = struct{}{}
	r.file(sub, true)
	r.mu.Unlock()
	return sub
}

// unregister detaches sub from its index list. Idempotent.
func (r *registry) unregister(sub *subscriber) {
	r.mu.Lock()
	delete(r.members, sub)
	r.file(sub, false)
	r.mu.Unlock()
}

// file adds sub to (add) or removes it from the index list of its most
// selective filter dimension. Caller holds r.mu.
func (r *registry) file(sub *subscriber, add bool) {
	switch f := sub.f; {
	case f.Tag >= 0:
		refile(r.byTag, f.Tag, sub, add)
	case f.Site >= 0:
		refile(r.bySite, f.Site, sub, add)
	case f.Pattern != "":
		refile(r.byPattern, f.Pattern, sub, add)
	case add:
		r.all = append(r.all, sub)
	default:
		r.all = removeSub(r.all, sub)
	}
}

// refile adds sub to, or removes it from, m[k], dropping an emptied key.
func refile[K comparable](m map[K][]*subscriber, k K, sub *subscriber, add bool) {
	if add {
		m[k] = append(m[k], sub)
	} else if subs := removeSub(m[k], sub); len(subs) > 0 {
		m[k] = subs
	} else {
		delete(m, k)
	}
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
// candidates come from the alert's tag list, its site list, its pattern
// list and the broadcast list. A wakeup never blocks, so dispatch — and
// therefore the scheduler publishing the alert — is never held up by a
// slow consumer; each subscriber reads the alert from the log itself.
func (r *registry) dispatch(a Alert) {
	var matched int64
	r.mu.RLock()
	for _, subs := range [...][]*subscriber{r.byTag[a.Tag], r.bySite[a.Site], r.byPattern[a.Pattern], r.all} {
		for _, sub := range subs {
			if sub.f.Match(a) {
				sub.signal()
				matched++
			}
		}
	}
	r.mu.RUnlock()
	r.enqueued.Add(matched)
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
	logLen := r.log.len()
	minNext := logLen
	r.mu.RLock()
	ds := DeliveryStats{Subscribers: len(r.members), Enqueued: r.enqueued.Load()}
	for sub := range r.members {
		minNext = min(minNext, sub.cursor())
	}
	r.mu.RUnlock()
	ds.SlowestLag = logLen - minNext
	return ds
}
