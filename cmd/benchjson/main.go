// Command benchjson converts `go test -bench` output into a machine-
// readable JSON file so the performance trajectory can be tracked across
// PRs (`make bench-json` writes BENCH_serve.json / BENCH_rfinfer.json /
// BENCH_dist.json at the repo root).
//
// It reads benchmark output on stdin, echoes every line through to stdout
// (so logs stay human-readable), and writes the parsed records to -o:
//
//	go test -bench . -benchmem -run XXX ./internal/serve/ | benchjson -o BENCH_serve.json
//
// Each record carries the benchmark name (CPU suffix stripped), iteration
// count, ns/op, B/op, allocs/op, and every custom metric the benchmark
// reported (readings/s, ingest-p99-us, ...) under "metrics". The stripped
// suffix is kept as "gomaxprocs" in the document's context, next to the
// cpu model — the numbers mean nothing without them — and "pkgs", every
// package the input ran (one `go test` over several prints several headers).
//
// With -check FILE the parsed results are additionally compared against
// the committed baseline in FILE and the exit status becomes the CI perf
// gate (`make bench-check`): a benchmark present in both runs fails the
// gate when its wall time (ns/op) or allocations regress by more than
// -threshold (default 20%), or its throughput metric (readings/s) drops
// by more than the same margin. Benchmarks only on one side are ignored,
// so adding or retiring a benchmark never breaks the gate. A baseline
// pinned on another cpu model, at another GOMAXPROCS or over another set of
// packages is not comparable at all — contended-path ns/op and pool
// allocations move severalfold with the core count — so the gate then fails
// with one line saying so and how to re-pin, instead of a list of phantom
// regressions.
//
// -tolerance widens the margin for specific benchmarks or specific
// dimensions of one benchmark — for results that are legitimately
// noisier than the default threshold (I/O-bound recovery, wide fan-out):
//
//	benchjson -check BENCH.json -tolerance 'Recovery=0.4,Fanout100k:ns/op=0.35'
//
// Entries are comma-separated `Name=frac` (every gated dimension of that
// benchmark) or `Name:metric=frac` (that dimension only, metric one of
// ns/op, allocs/op, readings/s; the specific form wins). The gate runs
// under a pinned GOGC (see the Makefile) so GC cadence cannot drift
// between the committed baseline and the checking run.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"slices"
	"strconv"
	"strings"
)

// Record is one parsed benchmark result line.
type Record struct {
	// Name is the benchmark name with the -GOMAXPROCS suffix stripped.
	Name string `json:"name"`
	// Iterations is the measured b.N.
	Iterations int64 `json:"iterations"`
	// NsPerOp, BytesPerOp and AllocsPerOp mirror the standard columns; the
	// latter two are -1 when -benchmem was not set.
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	// Metrics holds every custom b.ReportMetric unit, e.g. "readings/s".
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Output is the emitted JSON document.
type Output struct {
	// Context is the goos/goarch/cpu header of the run, "pkgs" — every
	// pkg header it printed, sorted and comma-separated — and "gomaxprocs",
	// the -N suffix of its benchmark names.
	Context map[string]string `json:"context,omitempty"`
	// Benchmarks are the parsed result lines, in input order.
	Benchmarks []Record `json:"benchmarks"`
}

// tolerances maps "Name" or "Name:metric" to a per-benchmark regression
// margin that overrides the global -threshold. It implements flag.Value
// and accepts comma-separated entries, repeatable across flags.
type tolerances map[string]float64

func (t tolerances) String() string { return fmt.Sprint(map[string]float64(t)) }

func (t tolerances) Set(s string) error {
	for _, ent := range strings.Split(s, ",") {
		ent = strings.TrimSpace(ent)
		if ent == "" {
			continue
		}
		// The fraction follows the last '=': sub-benchmark names carry
		// their own ("FeedAdvanceSkewed/workers=1").
		eq := strings.LastIndex(ent, "=")
		if eq < 0 {
			return fmt.Errorf("tolerance %q: want Name=frac or Name:metric=frac", ent)
		}
		key, val := ent[:eq], ent[eq+1:]
		frac, err := strconv.ParseFloat(val, 64)
		if err != nil || frac < 0 {
			return fmt.Errorf("tolerance %q: bad fraction %q", ent, val)
		}
		t[strings.TrimSpace(key)] = frac
	}
	return nil
}

// threshold resolves the margin for one benchmark dimension: the
// Name:metric override if present, else the Name override, else the
// global default.
func (t tolerances) threshold(name, metric string, def float64) float64 {
	if v, ok := t[name+":"+metric]; ok {
		return v
	}
	if v, ok := t[name]; ok {
		return v
	}
	return def
}

func main() {
	out := flag.String("o", "", "output JSON file")
	check := flag.String("check", "", "baseline JSON file to gate against (exit 1 on regression)")
	threshold := flag.Float64("threshold", 0.20, "relative regression that fails -check (0.20 = 20%)")
	tol := tolerances{}
	flag.Var(tol, "tolerance", "per-benchmark overrides of -threshold: 'Name=frac' or 'Name:metric=frac', comma-separated")
	flag.Parse()
	if *out == "" && *check == "" {
		log.Fatal("benchjson: need -o and/or -check")
	}

	doc, err := parse(os.Stdin, os.Stdout)
	if err != nil {
		log.Fatalf("benchjson: %v", err)
	}

	if *out != "" {
		data, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		data = append(data, '\n')
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmarks to %s\n", len(doc.Benchmarks), *out)
	}
	if *check != "" {
		if err := checkBaseline(*check, doc, *threshold, tol); err != nil {
			log.Fatalf("benchjson: %v", err)
		}
	}
}

// parse reads `go test -bench` output, echoing every line to echo, into a
// document.
func parse(r io.Reader, echo io.Writer) (Output, error) {
	doc := Output{Context: map[string]string{}}
	var pkgs []string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(echo, line)
		if key, val, ok := contextLine(line); ok {
			if key == "pkg" {
				pkgs = append(pkgs, val)
			} else {
				doc.Context[key] = val
			}
			continue
		}
		if rec, procs, ok := parseBench(line); ok {
			doc.Benchmarks = append(doc.Benchmarks, rec)
			doc.Context["gomaxprocs"] = strconv.Itoa(procs)
		}
	}
	if err := sc.Err(); err != nil {
		return doc, fmt.Errorf("reading input: %w", err)
	}
	if len(doc.Benchmarks) == 0 {
		return doc, fmt.Errorf("no benchmark lines found in the input")
	}
	slices.Sort(pkgs)
	doc.Context["pkgs"] = strings.Join(slices.Compact(pkgs), ",")
	return doc, nil
}

// checkBaseline compares the run's records against the committed baseline
// and returns an error describing every regression past the threshold.
// Gated dimensions: ns/op and allocs/op may not grow by more than the
// threshold (a zero-alloc baseline may not allocate at all, regardless of
// tolerance), and the readings/s throughput metric may not shrink by more
// than it. tol widens the margin per benchmark or per dimension. A baseline
// from another cpu model, GOMAXPROCS or set of packages is refused whole.
func checkBaseline(path string, got Output, threshold float64, tol tolerances) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base Output
	if err := json.Unmarshal(b, &base); err != nil {
		return fmt.Errorf("baseline %s: %w", path, err)
	}
	for _, k := range []string{"cpu", "gomaxprocs", "pkgs"} {
		if base.Context[k] != got.Context[k] {
			return fmt.Errorf("baseline %s is not comparable: it was pinned at %s=%q, this run has %s=%q; re-pin with `make bench-json` on this machine",
				path, k, base.Context[k], k, got.Context[k])
		}
	}
	baseline := make(map[string]Record, len(base.Benchmarks))
	for _, r := range base.Benchmarks {
		baseline[r.Name] = r
	}
	var fails []string
	checked := 0
	for _, r := range got.Benchmarks {
		old, ok := baseline[r.Name]
		if !ok {
			continue
		}
		checked++
		if m := tol.threshold(r.Name, "ns/op", threshold); old.NsPerOp > 0 && r.NsPerOp > old.NsPerOp*(1+m) {
			fails = append(fails, fmt.Sprintf("%s: ns/op %.0f -> %.0f (+%.0f%%, margin %.0f%%)",
				r.Name, old.NsPerOp, r.NsPerOp, 100*(r.NsPerOp/old.NsPerOp-1), 100*m))
		}
		switch m := tol.threshold(r.Name, "allocs/op", threshold); {
		case old.AllocsPerOp == 0 && r.AllocsPerOp > 0:
			fails = append(fails, fmt.Sprintf("%s: allocs/op 0 -> %.0f (zero-alloc baseline)",
				r.Name, r.AllocsPerOp))
		case old.AllocsPerOp > 0 && r.AllocsPerOp > old.AllocsPerOp*(1+m):
			fails = append(fails, fmt.Sprintf("%s: allocs/op %.0f -> %.0f (+%.0f%%, margin %.0f%%)",
				r.Name, old.AllocsPerOp, r.AllocsPerOp, 100*(r.AllocsPerOp/old.AllocsPerOp-1), 100*m))
		}
		if want := old.Metrics["readings/s"]; want > 0 {
			m := tol.threshold(r.Name, "readings/s", threshold)
			if have := r.Metrics["readings/s"]; have < want*(1-m) {
				fails = append(fails, fmt.Sprintf("%s: readings/s %.0f -> %.0f (-%.0f%%, margin %.0f%%)",
					r.Name, want, have, 100*(1-have/want), 100*m))
			}
		}
	}
	if len(fails) > 0 {
		return fmt.Errorf("perf gate vs %s failed:\n  %s", path, strings.Join(fails, "\n  "))
	}
	fmt.Fprintf(os.Stderr, "benchjson: perf gate vs %s passed (%d benchmarks within %.0f%%)\n",
		path, checked, 100*threshold)
	return nil
}

// contextLine recognizes the run's goos/goarch/pkg/cpu header lines.
func contextLine(line string) (key, val string, ok bool) {
	for _, k := range []string{"goos", "goarch", "pkg", "cpu"} {
		if rest, found := strings.CutPrefix(line, k+": "); found {
			return k, strings.TrimSpace(rest), true
		}
	}
	return "", "", false
}

// parseBench parses one `BenchmarkX-N  iters  v unit  v unit ...` line.
// procs is N, the GOMAXPROCS the benchmark ran at (go test omits the suffix
// at 1).
func parseBench(line string) (rec Record, procs int, ok bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Record{}, 0, false
	}
	name := fields[0]
	procs = 1
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if n, err := strconv.Atoi(name[i+1:]); err == nil {
			name, procs = name[:i], n
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Record{}, 0, false
	}
	rec = Record{
		Name:        strings.TrimPrefix(name, "Benchmark"),
		Iterations:  iters,
		BytesPerOp:  -1,
		AllocsPerOp: -1,
	}
	// The remainder is (value, unit) pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Record{}, 0, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			rec.NsPerOp = v
		case "B/op":
			rec.BytesPerOp = v
		case "allocs/op":
			rec.AllocsPerOp = v
		case "MB/s":
			fallthrough
		default:
			if rec.Metrics == nil {
				rec.Metrics = map[string]float64{}
			}
			rec.Metrics[unit] = v
		}
	}
	return rec, procs, true
}
