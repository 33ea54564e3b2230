package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestTolerancesSet(t *testing.T) {
	tol := tolerances{}
	if err := tol.Set("Recovery=0.4, Fanout100k:ns/op=0.35,"); err != nil {
		t.Fatal(err)
	}
	if err := tol.Set("Checkpoint=0.3,FeedAdvanceSkewed/workers=1:ns/op=0.25"); err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"Recovery": 0.4, "Fanout100k:ns/op": 0.35, "Checkpoint": 0.3,
		"FeedAdvanceSkewed/workers=1:ns/op": 0.25}
	if len(tol) != len(want) {
		t.Fatalf("parsed %v, want %v", tol, want)
	}
	for k, v := range want {
		if tol[k] != v {
			t.Errorf("tol[%q] = %v, want %v", k, tol[k], v)
		}
	}
	for _, bad := range []string{"Recovery", "X=-0.1", "Y=notafrac"} {
		if err := (tolerances{}).Set(bad); err == nil {
			t.Errorf("Set(%q) accepted, want error", bad)
		}
	}
}

func TestToleranceThresholdPrecedence(t *testing.T) {
	tol := tolerances{"Recovery": 0.4, "Recovery:ns/op": 0.5}
	if got := tol.threshold("Recovery", "ns/op", 0.2); got != 0.5 {
		t.Errorf("metric override = %v, want 0.5", got)
	}
	if got := tol.threshold("Recovery", "allocs/op", 0.2); got != 0.4 {
		t.Errorf("name override = %v, want 0.4", got)
	}
	if got := tol.threshold("Ingest", "ns/op", 0.2); got != 0.2 {
		t.Errorf("default = %v, want 0.2", got)
	}
}

// boxContext is the machine every test baseline and run pretends to be on,
// unless the test is about a mismatch.
func boxContext() map[string]string {
	return map[string]string{"cpu": "Test CPU @ 1GHz", "gomaxprocs": "2", "pkgs": "rfidtrack/internal/serve"}
}

// run wraps records as a checking run on the test box.
func run(recs ...Record) Output {
	return Output{Context: boxContext(), Benchmarks: recs}
}

// writeBaseline commits one single-benchmark baseline file for checkBaseline.
func writeBaseline(t *testing.T, rec Record) string {
	t.Helper()
	data, err := json.Marshal(run(rec))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "base.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCheckBaselineTolerance(t *testing.T) {
	base := Record{Name: "Recovery", NsPerOp: 1000, AllocsPerOp: 10,
		Metrics: map[string]float64{"readings/s": 1e6}}
	path := writeBaseline(t, base)
	slow := run(Record{Name: "Recovery", NsPerOp: 1300, AllocsPerOp: 10,
		Metrics: map[string]float64{"readings/s": 1e6}})

	// +30% ns/op fails the default 20% gate...
	err := checkBaseline(path, slow, 0.20, tolerances{})
	if err == nil || !strings.Contains(err.Error(), "ns/op") {
		t.Fatalf("default gate = %v, want ns/op regression", err)
	}
	// ...passes with a whole-benchmark override...
	if err := checkBaseline(path, slow, 0.20, tolerances{"Recovery": 0.4}); err != nil {
		t.Fatalf("name tolerance: %v", err)
	}
	// ...and with a metric-specific one, which must not loosen the others.
	if err := checkBaseline(path, slow, 0.20, tolerances{"Recovery:ns/op": 0.4}); err != nil {
		t.Fatalf("metric tolerance: %v", err)
	}
	worse := run(Record{Name: "Recovery", NsPerOp: 1300, AllocsPerOp: 20,
		Metrics: map[string]float64{"readings/s": 1e6}})
	err = checkBaseline(path, worse, 0.20, tolerances{"Recovery:ns/op": 0.4})
	if err == nil || !strings.Contains(err.Error(), "allocs/op") {
		t.Fatalf("allocs gate under ns/op-only tolerance = %v, want allocs/op regression", err)
	}

	// A zero-alloc baseline stays a hard gate regardless of tolerance.
	zb := writeBaseline(t, Record{Name: "ClientIngestBinEncode", NsPerOp: 1})
	leak := run(Record{Name: "ClientIngestBinEncode", NsPerOp: 1, AllocsPerOp: 1})
	err = checkBaseline(zb, leak, 0.20, tolerances{"ClientIngestBinEncode": 9})
	if err == nil || !strings.Contains(err.Error(), "zero-alloc") {
		t.Fatalf("zero-alloc gate = %v, want failure", err)
	}
}

// TestCheckBaselineNotComparable pins the gate's refusal of a baseline from
// another machine shape: a 3x "regression" against a baseline pinned on one
// core is reported as one not-comparable line naming the re-pin command,
// never as a regression list — and the same numbers on the same shape do
// fail as regressions.
func TestCheckBaselineNotComparable(t *testing.T) {
	path := writeBaseline(t, Record{Name: "IngestBin", NsPerOp: 28})
	slow := run(Record{Name: "IngestBin", NsPerOp: 78})
	if err := checkBaseline(path, slow, 0.20, tolerances{}); err == nil || !strings.Contains(err.Error(), "ns/op 28 -> 78") {
		t.Fatalf("same box = %v, want the ns/op regression", err)
	}
	for key, val := range map[string]string{"gomaxprocs": "1", "cpu": "Other CPU @ 2GHz", "pkgs": "rfidtrack/internal/serve,rfidtrack/internal/wal"} {
		other := run(Record{Name: "IngestBin", NsPerOp: 78})
		other.Context[key] = val
		err := checkBaseline(path, other, 0.20, tolerances{})
		if err == nil {
			t.Fatalf("%s mismatch passed the gate", key)
		}
		msg := err.Error()
		if !strings.Contains(msg, "not comparable") || !strings.Contains(msg, key) ||
			!strings.Contains(msg, "make bench-json") || strings.Contains(msg, "\n") || strings.Contains(msg, "ns/op") {
			t.Errorf("%s mismatch = %q, want one not-comparable line naming %s and the re-pin command", key, msg, key)
		}
	}
	// A baseline that predates the gomaxprocs field cannot vouch for itself.
	old := run(Record{Name: "IngestBin", NsPerOp: 28})
	delete(old.Context, "gomaxprocs")
	data, err := json.Marshal(old)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := checkBaseline(path, slow, 0.20, tolerances{}); err == nil || !strings.Contains(err.Error(), "not comparable") {
		t.Fatalf("baseline without gomaxprocs = %v, want not comparable", err)
	}
}

func TestParseBenchCustomMetrics(t *testing.T) {
	rec, procs, ok := parseBench("BenchmarkIngestBin-8   \t 1000\t 245.0 ns/op\t 42600000 readings/s\t 83 B/op\t 0 allocs/op")
	if !ok {
		t.Fatal("line not parsed")
	}
	if rec.Name != "IngestBin" || procs != 8 || rec.NsPerOp != 245 || rec.AllocsPerOp != 0 ||
		rec.Metrics["readings/s"] != 42.6e6 {
		t.Errorf("parsed %+v at %d procs", rec, procs)
	}
	// go test drops the suffix at GOMAXPROCS=1; a sub-benchmark's own
	// "workers=2" is not one.
	for line, want := range map[string]struct {
		name  string
		procs int
	}{
		"BenchmarkIngestBin \t 1000\t 30.6 ns/op":                    {"IngestBin", 1},
		"BenchmarkFeedAdvanceSkewed/workers=2-4 \t 10\t 250.0 ns/op": {"FeedAdvanceSkewed/workers=2", 4},
		"BenchmarkFeedAdvanceSkewed/workers=2 \t 10\t 250.0 ns/op":   {"FeedAdvanceSkewed/workers=2", 1},
	} {
		rec, procs, ok := parseBench(line)
		if !ok || rec.Name != want.name || procs != want.procs {
			t.Errorf("parseBench(%q) = %q at %d procs (ok=%v), want %q at %d", line, rec.Name, procs, ok, want.name, want.procs)
		}
	}
}

// TestParseRecordsEveryPackage feeds the output of one `go test -bench` over
// two packages — as `make bench-dist` produces, the later package first: the
// document names both, sorted, not whichever header came last, and keeps both
// packages' benchmarks.
func TestParseRecordsEveryPackage(t *testing.T) {
	in := strings.Join([]string{
		"goos: linux", "goarch: amd64", "pkg: rfidtrack/internal/stream", "cpu: Test CPU @ 1GHz",
		"BenchmarkMigrationFrame-2 \t 1000\t 100.0 ns/op", "PASS", "ok  \trfidtrack/internal/stream\t1.0s",
		"goos: linux", "goarch: amd64", "pkg: rfidtrack/internal/dist", "cpu: Test CPU @ 1GHz",
		"BenchmarkFeedAdvance-2 \t 10\t 250.0 ns/op", "PASS", "ok  \trfidtrack/internal/dist\t1.0s",
	}, "\n")
	doc, err := parse(strings.NewReader(in), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := doc.Context["pkgs"], "rfidtrack/internal/dist,rfidtrack/internal/stream"; got != want {
		t.Errorf("pkgs = %q, want %q", got, want)
	}
	if _, ok := doc.Context["pkg"]; ok || doc.Context["cpu"] != "Test CPU @ 1GHz" || doc.Context["gomaxprocs"] != "2" {
		t.Errorf("context = %v", doc.Context)
	}
	if len(doc.Benchmarks) != 2 || doc.Benchmarks[0].Name != "MigrationFrame" || doc.Benchmarks[1].Name != "FeedAdvance" {
		t.Errorf("benchmarks = %+v", doc.Benchmarks)
	}
	if _, err := parse(strings.NewReader("pkg: x\nPASS\n"), io.Discard); err == nil {
		t.Error("input without benchmark lines parsed")
	}
}
