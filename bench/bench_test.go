package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"rfidtrack/internal/dist"
	"rfidtrack/internal/model"
	"rfidtrack/internal/serve"
	"rfidtrack/internal/sim"
)

func TestQuartilesFollowPythonExclusiveMethod(t *testing.T) {
	// Expected values are statistics.quantiles(xs, n=4) from CPython.
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{10, 20}, 7.5, 22.5},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{7}, 7, 7},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestPercentileIsAnObservedSample(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted on purpose
	}
	for p, want := range map[float64]float64{50: 50, 90: 90, 99: 99, 100: 100} {
		if got := percentile(xs, p); got != want {
			t.Errorf("p%v = %v, want %v", p, got, want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty sample: %v", got)
	}
}

func TestHighestPercentileNeedsTenSamplesBeyondIt(t *testing.T) {
	for n, want := range map[int]float64{0: 0, 19: 0, 20: 50, 99: 50, 100: 90, 999: 90, 1000: 99, 9999: 99, 10000: 99.9} {
		if got := highestPercentile(n); got != want {
			t.Errorf("highestPercentile(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestOpenLoopScheduleNeverSlows(t *testing.T) {
	start := time.Unix(1000, 0)
	due := dueTimes(start, 4, 512, 51200) // one request per 10 ms
	for i, d := range due {
		if want := start.Add(time.Duration(i) * 10 * time.Millisecond); !d.Equal(want) {
			t.Errorf("due[%d] = %v, want %v", i, d, want)
		}
	}
	// Request 1 stalls for 25 ms. Requests 2 and 3 are sent as soon as the
	// connection frees up: they are late against their due times (which
	// their latency counts), but the generator itself lost no time.
	at := func(ms int) time.Time { return start.Add(time.Duration(ms) * time.Millisecond) }
	posts := []postResult{
		{due: due[0], sent: at(0), acked: at(1)},
		{due: due[1], sent: at(10), acked: at(35)},
		{due: due[2], sent: at(35), acked: at(36)},
		{due: due[3], sent: at(38), acked: at(39)}, // the generator overslept 2 ms here
	}
	if got, want := ackLatencies(posts), []float64{1, 25, 16, 9}; !reflect.DeepEqual(got, want) {
		t.Errorf("ack latencies from due time = %v, want %v", got, want)
	}
	if got, want := generatorLateness(posts), []float64{0, 0, 0, 2}; !reflect.DeepEqual(got, want) {
		t.Errorf("generator lateness = %v, want %v", got, want)
	}
}

func TestSelfTimeSubtractsWhatChildrenCover(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 50, Parent: 0},
		{Name: "b", Start: 40, End: 70, Parent: 0},   // overlaps a by 10
		{Name: "c", Start: 90, End: 130, Parent: 0},  // reaches 30 past the root
		{Name: "a1", Start: 10, End: 30, Parent: 1},  // inside a
		{Name: "gap", Start: 0, End: 0, Parent: 0},   // empty
		{Name: "a2", Start: 45, End: 60, Parent: 1},  // half outside a
		{Name: "other", Start: 5, End: 9, Parent: 2}, // entirely outside b: covers nothing of it
	}
	got := selfTimes(spans)
	// root: 100 − (a∪b = 10..70 → 60) − (c∩root = 90..100 → 10) = 30
	// a: 40 − a1 (20) − a2∩a (45..50 → 5) = 15;  b: 30;  c: 40
	want := []int64{30, 15, 30, 40, 20, 0, 15, 4}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestAttachedChildrenAreClippedToTheirParent(t *testing.T) {
	l := &ledger{}
	l.Spans = []span{
		{Name: rootName, Start: 0, End: 1000, Parent: -1},
		{Name: "serve.ingest_frame", Start: 100, End: 200, Parent: 0},
	}
	l.attach(1, "stream.decode_frame", 30, srcIsolated)
	l.attach(1, "wal.append", 500, srcIsolated) // measured longer than the parent lasted
	if s := l.Spans[2]; s.Start != 100 || s.End != 130 {
		t.Errorf("first child at %d..%d, want 100..130", s.Start, s.End)
	}
	if s := l.Spans[3]; s.Start != 130 || s.End != 200 {
		t.Errorf("second child at %d..%d, want 130..200 (clipped)", s.Start, s.End)
	}
	self := selfTimes(l.Spans)
	if self[1] != 0 || self[0] != 900 {
		t.Errorf("self times %v: parent should be fully explained, root 900", self)
	}
	if got := l.unattributedShare(); got != 0.9 {
		t.Errorf("unattributed share = %v, want 0.9", got)
	}
	if got := l.layerShare("stream.", "wal."); got != 0.1 {
		t.Errorf("stream+wal share = %v, want 0.1", got)
	}
	off := newLedger("w", 1, true)
	if i := off.begin("x", -1, -1); i != -1 || len(off.Spans) != 0 {
		t.Errorf("a ledger with spans off recorded a span")
	}
}

func TestAlertSeqMapsToItsCheckpointAndTrigger(t *testing.T) {
	// Checkpoints 0 and 2 raise alerts; checkpoint 3 is the final interval,
	// which no request triggers.
	per := []int{2, 0, 1, 1}
	if got, want := checkpointOfSeq(per), []int{0, 0, 2, 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("checkpointOfSeq = %v, want %v", got, want)
	}
	bodies := []body{
		{lastT: 40}, {lastT: -1}, {lastT: 99}, {lastT: 100}, {lastT: 250}, {lastT: 399},
	}
	trig := triggerIndex(bodies, 100, 4)
	if want := []int{3, 4, 5, -1}; !reflect.DeepEqual(trig, want) {
		t.Fatalf("triggerIndex = %v, want %v", trig, want)
	}
	t0 := time.Unix(0, 0)
	posts := make([]postResult, len(bodies))
	for i := range posts {
		posts[i].due = t0.Add(time.Duration(i) * time.Second)
	}
	arrivals := []arrival{
		{alert: serve.Alert{Seq: 0}, at: t0.Add(3500 * time.Millisecond)},
		{alert: serve.Alert{Seq: 2}, at: t0.Add(5250 * time.Millisecond)},
		{alert: serve.Alert{Seq: 3}, at: t0.Add(9 * time.Second)}, // drain-triggered: no latency sample
		{alert: serve.Alert{Seq: 7}, at: t0.Add(9 * time.Second)}, // unknown seq: ignored here
	}
	got := alertLatencies(arrivals, checkpointOfSeq(per), trig, posts)
	if want := []float64{500, 250}; !reflect.DeepEqual(got, want) {
		t.Errorf("alert latencies = %v, want %v", got, want)
	}
}

func TestProcParsing(t *testing.T) {
	// A command name with spaces and parentheses must not shift the fields.
	stat := "4242 (rfid (track) d) S 1 4242 4242 0 -1 4194560 1234 0 0 0 150 50 0 0 20 0 5 0 100 1000000 500 18446744073709551615"
	cpu, err := parseStatCPU(stat)
	if err != nil || cpu != 2*time.Second {
		t.Errorf("parseStatCPU = %v, %v; want 2s (150+50 ticks)", cpu, err)
	}
	if _, err := parseStatCPU("4242 (x) S 1 2"); err == nil {
		t.Error("truncated stat line parsed")
	}
	status := "Name:\trfidtrackd\nVmPeak:\t  900000 kB\nVmHWM:\t  123456 kB\nVmRSS:\t  100000 kB\n"
	hwm, err := parseStatusHWM(status)
	if err != nil || hwm != 123456 {
		t.Errorf("parseStatusHWM = %v, %v; want 123456", hwm, err)
	}
	if _, err := parseStatusHWM("Name:\tx\n"); err == nil {
		t.Error("status without VmHWM parsed")
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Unit: "ms", Bound: 0.10}
	higher := metricDef{Unit: "1/s", HigherBetter: true, Bound: 0.10}
	tight := func(m float64) summary { return summary{Median: m, Q1: m * 0.99, Q3: m * 1.01, N: 10} }
	wide := func(m float64) summary { return summary{Median: m, Q1: m * 0.9, Q3: m * 1.1, N: 10} }
	cases := []struct {
		a, b summary
		def  metricDef
		want string
	}{
		{tight(100), tight(105), lower, verdictSame},
		{tight(100), tight(115), lower, verdictWorse},
		{tight(100), tight(85), lower, verdictBetter},
		{tight(100), tight(115), higher, verdictBetter},
		{tight(100), tight(85), higher, verdictWorse},
		{wide(100), tight(115), lower, verdictUnresolved},
		{tight(100), wide(100), lower, verdictUnresolved},
		{summary{}, summary{}, metricDef{Unit: "ratio"}, verdictSame},
		{summary{}, summary{Median: 0.01, Q1: 0.01, Q3: 0.01}, metricDef{Unit: "ratio"}, verdictWorse},
	}
	for i, c := range cases {
		if got := verdict(c.a, c.b, c.def); got != c.want {
			t.Errorf("case %d: verdict = %s, want %s", i, got, c.want)
		}
	}
}

func TestReadSSE(t *testing.T) {
	in := "id: ac1-x\ndata: {\"seq\":0,\"site\":1,\"tag\":7,\"first\":3,\"last\":9}\n\n" +
		"id: ac1-y\ndata: {\"seq\":1,\"site\":0,\"tag\":8,\"first\":1,\"last\":2,\"values\":[4.5]}\n\n" +
		"event: done\ndata: {}\n\n"
	var got []serve.Alert
	if err := readSSE(strings.NewReader(in), func(a serve.Alert) { got = append(got, a) }); err != nil {
		t.Fatal(err)
	}
	want := []serve.Alert{
		{Seq: 0, Site: 1, Tag: 7, First: 3, Last: 9},
		{Seq: 1, Site: 0, Tag: 8, First: 1, Last: 2, Values: []float64{4.5}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("readSSE = %+v, want %+v", got, want)
	}
}

// TestBodiesCarryTheWorldInOrder checks the encoders on a small world:
// every reading and departure is carried exactly once, in stream-time
// order, departures ahead of the frame that could close their checkpoint,
// and aligned bodies never cross a Δ boundary.
func TestBodiesCarryTheWorldInOrder(t *testing.T) {
	w := workloads[0].sizeFor(0, true)
	world, err := sim.Generate(w.World.simConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	evs := flatten(world)
	wantReadings, wantDeps := 0, len(dist.WorldDepartures(world))
	for i, ev := range evs {
		if i > 0 && ev.time() < evs[i-1].time() {
			t.Fatalf("flatten out of order at %d", i)
		}
		if ev.depart == nil {
			wantReadings++
		}
	}
	if wantReadings == 0 || wantDeps == 0 {
		t.Fatalf("world too small to test: %d readings, %d departures", wantReadings, wantDeps)
	}
	const iv = model.Epoch(300)
	frames, err := encodeFrames(evs, len(world.Sites), 1000, iv)
	if err != nil {
		t.Fatal(err)
	}
	lines, err := encodeJSON(evs, 512, iv)
	if err != nil {
		t.Fatal(err)
	}
	for name, bodies := range map[string][]body{"frames": frames, "json": lines} {
		readings, deps := 0, 0
		lastT := model.Epoch(-1)
		for i := range bodies {
			runs, ds, err := bodyRuns(&bodies[i])
			if err != nil {
				t.Fatalf("%s body %d: %v", name, i, err)
			}
			deps += len(ds)
			lo, hi := model.Epoch(math.MaxInt32), model.Epoch(-1)
			for _, d := range ds {
				lo, hi = min(lo, d.At), max(hi, d.At)
			}
			n := 0
			for _, run := range runs {
				for _, r := range run.readings {
					lo, hi = min(lo, r.T), max(hi, r.T)
					n++
				}
			}
			if n != bodies[i].readings {
				t.Errorf("%s body %d says %d readings, carries %d", name, i, bodies[i].readings, n)
			}
			readings += n
			if n > 0 && lo < lastT {
				t.Errorf("%s body %d starts at epoch %d, before the previous body's last reading %d", name, i, lo, lastT)
			}
			if n > 0 {
				lastT = bodies[i].lastT
			}
			if hi >= 0 && lo/iv != hi/iv && n > 0 {
				t.Errorf("%s body %d crosses a Δ boundary: epochs %d..%d", name, i, lo, hi)
			}
		}
		if readings != wantReadings || deps != wantDeps {
			t.Errorf("%s carry %d readings and %d departures, world has %d and %d", name, readings, deps, wantReadings, wantDeps)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the registry in step: same
// workloads, same end-to-end metrics with the same units, directions and
// bounds, same per-layer list.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var spec struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, harness default is %d", spec.RunSeconds, defaultSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.Name || spec.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), harness %q (%q)", i, spec.Workloads[i].Name, spec.Workloads[i].Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	better := func(d metricDef) string {
		if d.HigherBetter {
			return "higher"
		}
		return "lower"
	}
	check := func(kind string, got []metric, want []string, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the harness", kind, len(got), len(want))
		}
		for i, name := range want {
			d := metricDefs[name]
			g := got[i]
			if g.Name != name || g.Unit != d.Unit || g.Better != better(d) || (bounded && g.Bound != d.Bound) {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, harness %s %+v", kind, i, g, name, d)
			}
			if bounded && (d.Bound <= 0 || d.Bound > 0.25) {
				t.Errorf("%s: bound %v outside (0, 0.25]", name, d.Bound)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, driverEndToEnd, true)
	check("per_layer", spec.PerLayer, driverPerLayer, false)
	if setup := metricDefs["setup_s"]; setup.Unit != "s" || setup.HigherBetter {
		t.Errorf("setup_s must be seconds, lower is better")
	}
	for _, name := range driverEndToEnd {
		if metricDefs[name].Bound > metricDefs["setup_s"].Bound {
			t.Errorf("%s has a larger bound than setup_s", name)
		}
	}
}
