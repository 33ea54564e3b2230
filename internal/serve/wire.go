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
	"math"
	"slices"
	"sync"

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

// lineReaders recycles ReadEvents' 64 KB line buffers, so a POST /ingest
// does not allocate and zero a fresh one per request.
var lineReaders = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, maxLineBytes) }}

// ReadEvents decodes a JSON-lines stream, calling emit for every decoded
// event. It returns the number of lines that failed to parse; a malformed
// or over-long line is skipped, not fatal, so one corrupt reader cannot
// stall the feed.
//
// A canonical line — one object whose keys are Event's exact tag names in
// any order, "type" "reading" or "depart", every number an unsigned
// decimal integer, JSON whitespace anywhere between tokens; what
// WriteEvents writes — is scanned in place without reflection or
// allocation. Every other line goes through encoding/json, so any line
// yields the same event, or the same bad-line count, either way.
func ReadEvents(r io.Reader, emit func(Event) error) (badLines int, err error) {
	br := lineReaders.Get().(*bufio.Reader)
	br.Reset(r)
	defer func() {
		br.Reset(nil) // the pool must not keep the request body alive
		lineReaders.Put(br)
	}()
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
			e, ok := decodeEvent(line)
			if !ok {
				e, ok = unmarshalEvent(line)
			}
			if !ok {
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

// unmarshalEvent decodes one line through encoding/json: the path for
// every line decodeEvent declines.
func unmarshalEvent(line []byte) (Event, bool) {
	var e Event
	if json.Unmarshal(line, &e) != nil || (e.Type != TypeReading && e.Type != TypeDepart) {
		return Event{}, false
	}
	return e, true
}

// decodeEvent scans one canonical event line (see ReadEvents) in place.
// It declines — ok false — anything it does not fully understand: escapes,
// non-ASCII bytes, unknown or case-variant keys, null, signs, fractions,
// exponents, leading zeros, more than 18 digits, a value that overflows
// its field, a missing type and trailing bytes. A declined line is not
// necessarily malformed; the caller hands it to encoding/json. Whatever it
// accepts, encoding/json decodes to the same Event, repeated keys
// included (last wins).
func decodeEvent(line []byte) (Event, bool) {
	var e Event
	i := skipSpace(line, 0)
	if i == len(line) || line[i] != '{' {
		return Event{}, false
	}
	for {
		i = skipSpace(line, i+1)
		key, j, ok := scanWord(line, i)
		if !ok {
			return Event{}, false
		}
		i = skipSpace(line, j)
		if i == len(line) || line[i] != ':' {
			return Event{}, false
		}
		i = skipSpace(line, i+1)
		if string(key) == "type" {
			var v []byte
			if v, i, ok = scanWord(line, i); !ok {
				return Event{}, false
			}
			switch string(v) {
			case TypeReading:
				e.Type = TypeReading
			case TypeDepart:
				e.Type = TypeDepart
			default:
				return Event{}, false
			}
		} else {
			var n uint64
			if n, i, ok = scanUint(line, i); !ok {
				return Event{}, false
			}
			switch string(key) {
			case "site":
				e.Site, ok = int(n), n <= math.MaxInt
			case "from":
				e.From, ok = int(n), n <= math.MaxInt
			case "to":
				e.To, ok = int(n), n <= math.MaxInt
			case "mask":
				e.Mask = model.Mask(n) // 18 digits always fit
			case "t":
				e.T, ok = model.Epoch(n), n <= math.MaxInt32
			case "at":
				e.At, ok = model.Epoch(n), n <= math.MaxInt32
			case "tag":
				e.Tag, ok = model.TagID(n), n <= math.MaxInt32
			case "object":
				e.Object, ok = model.TagID(n), n <= math.MaxInt32
			default:
				ok = false
			}
			if !ok {
				return Event{}, false
			}
		}
		i = skipSpace(line, i)
		if i == len(line) {
			return Event{}, false
		}
		if line[i] == '}' {
			break
		}
		if line[i] != ',' {
			return Event{}, false
		}
	}
	if skipSpace(line, i+1) != len(line) || e.Type == "" {
		return Event{}, false
	}
	return e, true
}

// skipSpace returns the index of the first non-whitespace byte of line at
// or after i.
func skipSpace(line []byte, i int) int {
	for i < len(line) && (line[i] == ' ' || line[i] == '\t' || line[i] == '\n' || line[i] == '\r') {
		i++
	}
	return i
}

// scanWord reads a JSON string of lowercase ASCII letters starting at
// line[i] and returns its contents and the index past its closing quote;
// any other byte inside the quotes declines it.
func scanWord(line []byte, i int) (word []byte, next int, ok bool) {
	if i == len(line) || line[i] != '"' {
		return nil, 0, false
	}
	start := i + 1
	for j := start; j < len(line); j++ {
		switch c := line[j]; {
		case c == '"':
			return line[start:j], j + 1, true
		case c < 'a' || c > 'z':
			return nil, 0, false
		}
	}
	return nil, 0, false
}

// maxScanDigits bounds scanUint's integers below 10^18, so they never
// overflow a uint64 (or an int64).
const maxScanDigits = 18

// scanUint reads an unsigned decimal integer without a leading zero
// starting at line[i] and returns it and the index past its last digit.
func scanUint(line []byte, i int) (n uint64, next int, ok bool) {
	j := i
	for ; j < len(line) && line[j] >= '0' && line[j] <= '9'; j++ {
		if j-i == maxScanDigits {
			return 0, 0, false
		}
		n = n*10 + uint64(line[j]-'0')
	}
	if j == i || (line[i] == '0' && j-i > 1) {
		return 0, 0, false
	}
	return n, j, true
}
