package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"rfidtrack/internal/model"
	"rfidtrack/internal/stream"
)

// TestAlertJSONGolden pins what external consumers read of the delivery
// tier: the JSON of one Alert (keys, values, and the omitted empty
// optionals), the SSE event lines of GET /alerts/stream, and the delivery
// keys of GET /stats. A change to any of these bytes breaks a consumer.
func TestAlertJSONGolden(t *testing.T) {
	const (
		full  = `{"seq":0,"site":1,"tag":7,"first":10,"last":40,"values":[1.5,2],"pattern":"q1"}`
		plain = `{"seq":1,"site":0,"tag":3,"first":5,"last":6}`
	)
	l := newAlertLog()
	reg := newRegistry(l)
	tagged := MatchAll()
	tagged.Tag = 7
	sub := reg.register(tagged, 0) // never reads: trails the tail by both alerts
	defer sub.shutdown()
	for _, p := range []struct {
		site    int
		pattern string
		m       stream.Match
	}{
		{1, "q1", stream.Match{Tag: 7, First: 10, Last: 40, Values: []float64{1.5, 2}}},
		{0, "", stream.Match{Tag: 3, First: 5, Last: 6}},
	} {
		if a, fresh := l.publish(p.site, p.pattern, p.m); fresh {
			reg.dispatch(a)
		}
	}

	got := l.since(0)
	for i, want := range []string{full, plain} {
		b, err := json.Marshal(got[i])
		if err != nil {
			t.Fatal(err)
		}
		if string(b) != want {
			t.Errorf("alert %d JSON\n got %s\nwant %s", i, b, want)
		}
	}
	var back Alert
	if err := json.Unmarshal([]byte(full), &back); err != nil {
		t.Fatal(err)
	}
	want := Alert{Seq: 0, Site: 1, Tag: model.TagID(7), First: 10, Last: 40, Values: []float64{1.5, 2}, Pattern: "q1"}
	if !reflect.DeepEqual(back, want) {
		t.Errorf("alert JSON does not round-trip: got %+v want %+v", back, want)
	}

	// The delivery keys /stats keeps, under "delivery".
	var st map[string]json.RawMessage
	if err := json.Unmarshal([]byte(mustJSON(t, Stats{Delivery: reg.stats()})), &st); err != nil {
		t.Fatal(err)
	}
	var ds map[string]any
	if err := json.Unmarshal(st["delivery"], &ds); err != nil {
		t.Fatalf("stats has no delivery object: %v", err)
	}
	for key, want := range map[string]float64{
		"subscribers": 1, "enqueued": 1, "dropped": 0, "catchups": 0, "slowest_lag": 2,
	} {
		if v, ok := ds[key].(float64); !ok || v != want {
			t.Errorf("delivery %q = %v, want %v", key, ds[key], want)
		}
	}

	// One SSE event per alert, its id the cursor past it, then the
	// terminal marker of a finished log.
	l.finish()
	reg.wakeAll()
	srv := &Server{alerts: l, registry: reg}
	ts := httptest.NewServer(http.HandlerFunc(srv.handleAlertStream))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "?since=0")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	wantSSE := "id: ac1-1-1fbe247f\ndata: " + full + "\n\n" +
		"id: ac1-2-86b775c5\ndata: " + plain + "\n\n" +
		"event: done\ndata: {}\n\n"
	if string(body) != wantSSE {
		t.Errorf("SSE transcript\n got %q\nwant %q", body, wantSSE)
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
