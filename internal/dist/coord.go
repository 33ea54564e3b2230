// The cluster coordinator: site-ownership maps and cross-peer result
// merging — the glue that turns N partitioned feeds into one logical
// cluster.
//
// Cross-process determinism argument: every site's engine (inference and
// query) lives on exactly one peer, and every peer applies the same global
// departure order (the (At, Object, From, To) sort each feed performs
// independently over the same broadcast departure stream). A migration
// payload is a pure function of the source engine's state at its position
// in that order, and the Transport delivers it keyed by departure identity
// to the same position on the destination peer. By induction over
// (checkpoint, departure order), every engine passes through exactly the
// states of the sequential reference, so the merged Result and alert set
// are bit-identical to ReplaySequential at any peer count, worker count or
// network interleaving. The per-link ordered delivery the HTTP transport
// provides is not even required for state correctness (Recv is keyed, not
// ordered); it only bounds inbox growth.
package dist

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"rfidtrack/internal/model"
)

// DefaultSiteMap assigns sites to peers contiguously: site s belongs to
// peer s*peers/sites, so every peer owns a block of ⌈sites/peers⌉ or
// ⌊sites/peers⌋ consecutive sites.
func DefaultSiteMap(sites, peers int) []int {
	owner := make([]int, sites)
	for s := range owner {
		owner[s] = s * peers / sites
	}
	return owner
}

// ParseSiteMap parses a comma-separated site→peer assignment ("0,0,1,1"
// maps sites 0-1 to peer 0 and sites 2-3 to peer 1), validating that every
// site is assigned a peer in [0, peers) and that every peer owns at least
// one site (a peerless site would deadlock the cluster; a siteless peer
// would idle forever and never converge its Result's Runs count).
func ParseSiteMap(spec string, sites, peers int) ([]int, error) {
	parts := strings.Split(spec, ",")
	if len(parts) != sites {
		return nil, fmt.Errorf("dist: site map has %d entries, want one per site (%d)", len(parts), sites)
	}
	owner := make([]int, sites)
	seen := make([]bool, peers)
	for s, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("dist: site map entry %d: %v", s, err)
		}
		if v < 0 || v >= peers {
			return nil, fmt.Errorf("dist: site %d assigned to peer %d, want [0,%d)", s, v, peers)
		}
		owner[s] = v
		seen[v] = true
	}
	for p, ok := range seen {
		if !ok {
			return nil, fmt.Errorf("dist: peer %d owns no sites", p)
		}
	}
	return owner, nil
}

// OwnedSites converts a site→peer map into peer self's ownership mask, the
// form OpenPartitionedFeed takes.
func OwnedSites(owner []int, self int) []bool {
	owned := make([]bool, len(owner))
	for s, p := range owner {
		owned[s] = p == self
	}
	return owned
}

// MergeResults combines the partial Results of N partitioned feeds over
// disjoint site sets into the single-cluster Result. Error counts and
// query-state bytes sum (each site is scored by exactly one peer; each
// send is accounted on exactly one peer). Links merge by (From, To) — the
// link sets are disjoint across peers, since a link is accounted where its
// source site lives — and Costs recompute from the merged links. Runs and
// CentralizedBytes take the max: every peer runs the same checkpoints and
// computes the same whole-world baseline.
func MergeResults(rs []Result) Result {
	var out Result
	links := make(map[linkKey]Costs)
	for _, r := range rs {
		out.ContErr.Add(r.ContErr)
		out.LocErr.Add(r.LocErr)
		out.QueryStateBytes += r.QueryStateBytes
		for _, lc := range r.Links {
			k := linkKey{from: lc.From, to: lc.To}
			v := links[k]
			v.Bytes += lc.Bytes
			v.Messages += lc.Messages
			links[k] = v
		}
		out.Runs = max(out.Runs, r.Runs)
		out.CentralizedBytes = max(out.CentralizedBytes, r.CentralizedBytes)
	}
	for _, v := range links {
		out.Costs.Bytes += v.Bytes
		out.Costs.Messages += v.Messages
	}
	out.Links = sortedLinks(links)
	return out
}

// MergeAlertKeys sorts alert identity tuples into the canonical cross-peer
// order (Site, Tag, First, Last). Per-peer alert sequence numbers are
// peer-local, so cross-peer comparisons are over the sorted set.
type AlertKey struct {
	// Site raised the alert for Tag over the [First, Last] episode.
	Site        int
	Tag         model.TagID
	First, Last model.Epoch
}

// SortAlertKeys orders keys by (Site, Tag, First, Last) in place.
func SortAlertKeys(keys []AlertKey) {
	slices.SortFunc(keys, func(a, b AlertKey) int {
		if c := cmp.Compare(a.Site, b.Site); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Tag, b.Tag); c != 0 {
			return c
		}
		if c := cmp.Compare(a.First, b.First); c != 0 {
			return c
		}
		return cmp.Compare(a.Last, b.Last)
	})
}
