package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// Where a span's interval came from.
const (
	srcLive     = "live"     // time.Now() around a call in the ledger run itself
	srcIsolated = "isolated" // the same input replayed through the layer alone, afterwards
	srcStats    = "stats"    // a delta of the program's own public counters across the parent
)

// span is one timed call into a layer, recorded from outside it.
type span struct {
	Name string `json:"name"`
	// Start and End are nanoseconds since the ledger run began.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
	// Parent is the index of the span that caused this one; the root's is -1.
	Parent int `json:"parent"`
	// Checkpoint groups the spans of one Δ-interval; -1 when not tied to one.
	Checkpoint int    `json:"checkpoint"`
	Source     string `json:"source"`
}

// ledger collects the spans of one traced run in memory. With off set,
// begin and end do nothing: the same drive loop then runs untraced, and
// the difference between the two walls is the tracing overhead.
type ledger struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Spans    []span `json:"spans"`
	t0       time.Time
	off      bool
}

func newLedger(workload string, seed int64, off bool) *ledger {
	return &ledger{Workload: workload, Seed: seed, t0: time.Now(), off: off}
}

// begin opens a live span and returns its index (-1 when tracing is off).
func (l *ledger) begin(name string, parent, checkpoint int) int {
	if l.off {
		return -1
	}
	l.Spans = append(l.Spans, span{Name: name, Parent: parent, Checkpoint: checkpoint, Source: srcLive})
	i := len(l.Spans) - 1
	l.Spans[i].Start = int64(time.Since(l.t0))
	return i
}

func (l *ledger) end(i int) {
	if i >= 0 {
		l.Spans[i].End = int64(time.Since(l.t0))
	}
}

// attach records a child whose duration was measured elsewhere — an
// isolated replay of the parent's input, or a counter delta — inside its
// parent. Attached children are laid end to end from the parent's start,
// and clipped to it: a child cannot explain more of the parent than the
// parent lasted.
func (l *ledger) attach(parent int, name string, d time.Duration, source string) int {
	if l.off || parent < 0 {
		return -1
	}
	p := l.Spans[parent]
	start := p.Start
	for _, s := range l.Spans {
		if s.Parent == parent && s.End > start {
			start = s.End
		}
	}
	end := min(start+int64(d), p.End)
	start = min(start, end)
	l.Spans = append(l.Spans, span{Name: name, Start: start, End: end, Parent: parent, Checkpoint: p.Checkpoint, Source: source})
	return len(l.Spans) - 1
}

// selfTimes returns every span's self time: its duration minus the part
// of its interval that its children cover (overlapping children are not
// counted twice; a child reaching outside its parent counts only inside).
func selfTimes(spans []span) []int64 {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].Start < spans[ks[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range ks {
			from, to := max(spans[k].Start, edge), min(spans[k].End, s.End)
			if to > from {
				covered += to - from
				edge = to
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// ledgerRow is one line of the printed ledger: every span of one name.
type ledgerRow struct {
	Name   string
	Count  int
	BusyNS int64
	SelfNS int64
}

// rows aggregates the spans by name, largest self time first. The root
// span's self time is what no layer accounts for.
func (l *ledger) rows() (rows []ledgerRow, wallNS int64) {
	self := selfTimes(l.Spans)
	byName := map[string]*ledgerRow{}
	for i, s := range l.Spans {
		if s.Parent < 0 {
			wallNS = s.End - s.Start
		}
		r := byName[s.Name]
		if r == nil {
			r = &ledgerRow{Name: s.Name}
			byName[s.Name] = r
		}
		r.Count++
		r.BusyNS += s.End - s.Start
		r.SelfNS += self[i]
	}
	for _, r := range byName {
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(a, b int) bool {
		if rows[a].SelfNS != rows[b].SelfNS {
			return rows[a].SelfNS > rows[b].SelfNS
		}
		return rows[a].Name < rows[b].Name
	})
	return rows, wallNS
}

// rootName is the span that covers the whole ledger run.
const rootName = "ledger"

// unattributedShare is the share of the ledger run's wall that no layer's
// self time accounts for: the harness's own work between calls.
func (l *ledger) unattributedShare() float64 {
	rows, wall := l.rows()
	if wall == 0 {
		return 0
	}
	for _, r := range rows {
		if r.Name == rootName {
			return float64(r.SelfNS) / float64(wall)
		}
	}
	return 0
}

// layerShare sums the self-time share of every span whose name starts
// with one of the prefixes.
func (l *ledger) layerShare(prefixes ...string) float64 {
	rows, wall := l.rows()
	if wall == 0 {
		return 0
	}
	var ns int64
	for _, r := range rows {
		for _, p := range prefixes {
			if strings.HasPrefix(r.Name, p) {
				ns += r.SelfNS
				break
			}
		}
	}
	return float64(ns) / float64(wall)
}

func (l *ledger) printTable(w io.Writer) {
	rows, wall := l.rows()
	fmt.Fprintf(w, "ledger (single-threaded, serial; wall %.1f ms):\n", float64(wall)/1e6)
	fmt.Fprintf(w, "  %-28s %8s %12s %12s %8s\n", "layer.span", "count", "busy ms", "self ms", "share")
	for _, r := range rows {
		name := r.Name
		if name == rootName {
			name = "(unattributed)"
		}
		fmt.Fprintf(w, "  %-28s %8d %12.2f %12.2f %7.1f%%\n", name, r.Count,
			float64(r.BusyNS)/1e6, float64(r.SelfNS)/1e6, 100*float64(r.SelfNS)/float64(max(wall, 1)))
	}
}

// write stores the spans as bench/out/trace-<workload>.json.
func (l *ledger) write() (string, error) {
	dir := filepath.Join("bench", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+l.Workload+".json")
	b, err := json.Marshal(l)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}
