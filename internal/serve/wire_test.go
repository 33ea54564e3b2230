package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"
)

// refReadEvents is ReadEvents as it was before the canonical-line scanner:
// every line through encoding/json plus the type check. It is the
// reference ReadEvents must agree with on any input.
func refReadEvents(r io.Reader, emit func(Event) error) (badLines int, err error) {
	br := bufio.NewReaderSize(r, maxLineBytes)
	for {
		line, err := br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
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

// decodeBoth runs body through ReadEvents and the reference.
func decodeBoth(body []byte) (got, want []Event, gotBad, wantBad int, gotErr, wantErr error) {
	gotBad, gotErr = ReadEvents(bytes.NewReader(body), func(e Event) error { got = append(got, e); return nil })
	wantBad, wantErr = refReadEvents(bytes.NewReader(body), func(e Event) error { want = append(want, e); return nil })
	return
}

// readEventsCases are the equivalence table's bodies. fast says whether
// the scanner itself must accept every non-empty line of the body (true)
// or decline every one to encoding/json (false).
var readEventsCases = []struct {
	name string
	body string
	fast bool
}{
	{"reading", `{"type":"reading","site":2,"t":17,"tag":40001,"mask":5}` + "\n", true},
	{"depart", `{"type":"depart","object":9,"from":1,"to":2,"at":300}` + "\n", true},
	{"zero fields", `{"type":"reading","site":0,"t":0}` + "\n", true},
	{"int32 max", `{"type":"depart","object":2147483647,"at":2147483647}`, true},
	{"18-digit mask", `{"type":"reading","mask":999999999999999999}`, true},
	{"shuffled keys", `{"mask":5,"tag":40001,"t":17,"site":2,"type":"reading"}`, true},
	{"spaces", `{"type": "reading", "site": 2, "t": 17}`, true},
	{"any JSON whitespace", " \t{ \"type\" :\t\"depart\" ,\r\"at\" : 3 } \t", true},
	{"CRLF", `{"type":"reading","t":1}` + "\r\n" + `{"type":"reading","t":2}` + "\r\n", true},
	{"empty line", `{"type":"reading","t":1}` + "\n\n" + `{"type":"reading","t":2}` + "\n", true},
	{"duplicate key", `{"type":"reading","t":1,"t":2}`, true},
	{"duplicate type", `{"type":"depart","type":"reading","t":4}`, true},
	{"case-variant Type", `{"Type":"reading","t":1}`, false},
	{"case-variant TAG", `{"type":"reading","TAG":7}`, false},
	{"case-variant value", `{"type":"Reading","t":1}`, false},
	{"null", `{"type":"reading","t":null}`, false},
	{"negative", `{"type":"reading","t":-1}`, false},
	{"fraction", `{"type":"reading","t":1.0}`, false},
	{"exponent", `{"type":"reading","t":1e2}`, false},
	{"leading zero", `{"type":"reading","t":01}`, false},
	{"t overflow", `{"type":"reading","t":2147483648}`, false},
	{"tag overflow", `{"type":"reading","tag":2147483648}`, false},
	{"object overflow", `{"type":"depart","object":2147483648}`, false},
	{"at overflow", `{"type":"depart","at":2147483648}`, false},
	{"mask uint64 max", `{"type":"reading","mask":18446744073709551615}`, false},
	{"mask overflow", `{"type":"reading","mask":18446744073709551616}`, false},
	{"unknown nested object", `{"type":"reading","t":3,"extra":{"a":[1,{"b":2}]}}`, false},
	{"unknown nested array", `{"type":"reading","x":[1,{"b":null}],"t":3}`, false},
	{"escaped value", "{\"type\":\"read\\u0069ng\",\"t\":1}", false},
	{"escaped key", "{\"typ\\u0065\":\"depart\",\"at\":1}", false},
	{"non-ASCII key", `{"type":"reading","t":1,"é":2}`, false},
	{"bare string", `"reading"`, false},
	{"missing type", `{"t":3}`, false},
	{"empty object", `{}`, false},
	{"numeric type", `{"type":1}`, false},
	{"trailing comma", `{"type":"reading","t":3,}`, false},
	{"trailing garbage", `{"type":"reading","t":3}x`, false},
	{"second object", `{"type":"reading","t":3}{}`, false},
	{"array", `[1,2]`, false},
	{"number", `42`, false},
	{"truncated", `{"type":"reading","t":3`, false},
}

// TestReadEventsMatchesEncodingJSON holds ReadEvents to the per-line
// encoding/json decode it replaced: the same events and the same bad-line
// count on every case, with the scanner taking exactly the canonical
// lines and declining the rest.
func TestReadEventsMatchesEncodingJSON(t *testing.T) {
	for _, c := range readEventsCases {
		t.Run(c.name, func(t *testing.T) {
			got, want, gotBad, wantBad, gotErr, wantErr := decodeBoth([]byte(c.body))
			if gotErr != nil || wantErr != nil {
				t.Fatalf("errors: got %v, reference %v", gotErr, wantErr)
			}
			if !slices.Equal(got, want) || gotBad != wantBad {
				t.Errorf("ReadEvents: %+v, %d bad; encoding/json: %+v, %d bad", got, gotBad, want, wantBad)
			}
			for _, line := range strings.Split(c.body, "\n") {
				line = strings.TrimSuffix(line, "\r")
				if line == "" {
					continue
				}
				if _, ok := decodeEvent([]byte(line)); ok != c.fast {
					t.Errorf("decodeEvent(%q) ok=%v, want %v", line, ok, c.fast)
				}
			}
		})
	}
}

// TestWriteEventsLinesAreCanonical checks that everything WriteEvents
// writes — every body Client.Ingest and the load generators send — takes
// the scanner, never the encoding/json fallback.
func TestWriteEventsLinesAreCanonical(t *testing.T) {
	var buf bytes.Buffer
	events := WorldEvents(testWorld(t), nil)
	events = append(events, Event{Type: TypeDepart, Object: 7, From: 1, To: 2, At: 1 << 30})
	if err := WriteEvents(&buf, events); err != nil {
		t.Fatal(err)
	}
	for i, line := range bytes.Split(bytes.TrimSuffix(buf.Bytes(), []byte{'\n'}), []byte{'\n'}) {
		if e, ok := decodeEvent(line); !ok || e != events[i] {
			t.Fatalf("line %d %q: decodeEvent = %+v, %v; want %+v", i, line, e, ok, events[i])
		}
	}
}

// TestReadEventsAllocsDoNotGrowWithBody checks that canonical lines cost
// no allocation: a 4096-event body allocates no more than a 64-event one.
func TestReadEventsAllocsDoNotGrowWithBody(t *testing.T) {
	events := WorldEvents(testWorld(t), nil)
	allocs := func(n int) float64 {
		var buf bytes.Buffer
		if err := WriteEvents(&buf, events[:n]); err != nil {
			t.Fatal(err)
		}
		var rd bytes.Reader
		emit := func(Event) error { return nil }
		return testing.AllocsPerRun(50, func() {
			rd.Reset(buf.Bytes())
			if _, err := ReadEvents(&rd, emit); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, big := allocs(64), allocs(4096); big > small {
		t.Errorf("allocs per body: %v at 64 events, %v at 4096", small, big)
	}
}

// FuzzReadEvents is the differential bar: on any input ReadEvents emits
// exactly what the encoding/json reference emits.
func FuzzReadEvents(f *testing.F) {
	for _, c := range readEventsCases {
		f.Add([]byte(c.body))
	}
	var buf bytes.Buffer
	if err := WriteEvents(&buf, []Event{Reading(1, 2, 3, 4), {Type: TypeDepart, Object: 5, From: 1, To: 2, At: 6}}); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Fuzz(func(t *testing.T, body []byte) {
		got, want, gotBad, wantBad, gotErr, wantErr := decodeBoth(body)
		if gotErr != nil || wantErr != nil {
			t.Fatalf("errors: got %v, reference %v", gotErr, wantErr)
		}
		if !slices.Equal(got, want) || gotBad != wantBad {
			t.Fatalf("body %q: ReadEvents %+v, %d bad; encoding/json %+v, %d bad", body, got, gotBad, want, wantBad)
		}
	})
}
