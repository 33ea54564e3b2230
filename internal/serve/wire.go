// The JSON wire format of the ingestion front end: one event per line
// (ndjson), shared by the HTTP handler, the rfidsim load generator and the
// examples.
package serve

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"slices"

	"rfidtrack/internal/dist"
	"rfidtrack/internal/model"
	"rfidtrack/internal/sim"
)

// Event type tags of the ingestion stream.
const (
	// TypeReading is one reader observation: site, t, tag, mask.
	TypeReading = "reading"
	// TypeDepart is one object departure: object, from, to, at.
	TypeDepart = "depart"
)

// Event is one line of the ingestion stream — either a reading (one
// epoch's reader mask for a tag at a site) or a departure (an object
// leaving one site for another, which triggers state migration).
type Event struct {
	// Type is TypeReading or TypeDepart.
	Type string `json:"type"`

	// Reading fields: the observing site, the epoch, the tag read, and the
	// bitmask of reader locations that saw it.
	Site int         `json:"site,omitempty"`
	T    model.Epoch `json:"t,omitempty"`
	Tag  model.TagID `json:"tag,omitempty"`
	Mask model.Mask  `json:"mask,omitempty"`

	// Departure fields.
	Object model.TagID `json:"object,omitempty"`
	From   int         `json:"from,omitempty"`
	To     int         `json:"to,omitempty"`
	At     model.Epoch `json:"at,omitempty"`
}

// Reading builds a reading event.
func Reading(site int, t model.Epoch, tag model.TagID, mask model.Mask) Event {
	return Event{Type: TypeReading, Site: site, T: t, Tag: tag, Mask: mask}
}

// Depart builds a departure event.
func Depart(d dist.Departure) Event {
	return Event{Type: TypeDepart, Object: d.Object, From: d.From, To: d.To, At: d.At}
}

// Time returns the stream-time position of the event (T for readings, At
// for departures), which drives the Δ-interval scheduler.
func (e Event) Time() model.Epoch {
	if e.Type == TypeDepart {
		return e.At
	}
	return e.T
}

// WorldEvents flattens a simulated world into one time-ordered ingestion
// stream: every site's case and item readings merged with the given
// departures (usually Cluster.Departures()). It is what the rfidsim load
// generator and the daemon's demo mode stream at a server; a server fed
// this stream reproduces a Replay of the world exactly.
func WorldEvents(w *sim.World, deps []dist.Departure) []Event {
	var events []Event
	for s, tr := range w.Sites {
		for i := range tr.Tags {
			tg := &tr.Tags[i]
			if tg.Kind == model.KindPallet {
				continue
			}
			for _, rd := range tg.Readings {
				events = append(events, Reading(s, rd.T, tg.ID, rd.Mask))
			}
		}
	}
	for _, d := range deps {
		events = append(events, Depart(d))
	}
	// Stable, so same-epoch events keep the flatten order above. The typed
	// sort matters at world scale: sort.SliceStable moves these 56-byte
	// structs through a reflection swapper.
	slices.SortStableFunc(events, func(a, b Event) int { return cmp.Compare(a.Time(), b.Time()) })
	return events
}

// WriteEvents encodes events as JSON lines.
func WriteEvents(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, e := range events {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// maxLineBytes bounds one ingest line; a longer line is a malformed
// stream, not a bigger buffer.
const maxLineBytes = 1 << 16

// ReadEvents decodes a JSON-lines stream, calling emit for every decoded
// event. It returns the number of lines that failed to parse; a malformed
// or over-long line is skipped, not fatal, so one corrupt reader cannot
// stall the feed.
func ReadEvents(r io.Reader, emit func(Event) error) (badLines int, err error) {
	br := bufio.NewReaderSize(r, maxLineBytes)
	for {
		line, err := br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			// Over-long line: discard through its newline and count it.
			badLines++
			for err == bufio.ErrBufferFull {
				_, err = br.ReadSlice('\n')
			}
			if err == io.EOF {
				return badLines, nil
			}
			if err != nil {
				return badLines, fmt.Errorf("serve: reading event stream: %w", err)
			}
			continue
		}
		if err != nil && err != io.EOF {
			return badLines, fmt.Errorf("serve: reading event stream: %w", err)
		}
		atEOF := err == io.EOF
		line = bytes.TrimSuffix(line, []byte{'\n'})
		line = bytes.TrimSuffix(line, []byte{'\r'})
		if len(line) > 0 {
			var e Event
			if json.Unmarshal(line, &e) != nil || (e.Type != TypeReading && e.Type != TypeDepart) {
				badLines++
			} else if err := emit(e); err != nil {
				return badLines, err
			}
		}
		if atEOF {
			return badLines, nil
		}
	}
}
