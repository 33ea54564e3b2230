// Command bench is the repository's benchmark: four workloads against the
// real cmd/rfidtrackd binary over loopback HTTP for the end-to-end
// numbers, and a separate in-process traced ledger run for the per-layer
// numbers. README.md in this directory defines every workload and metric.
//
//	go run ./bench -workload paper_dense            # one workload
//	go run ./bench                                  # all four
//	go run ./bench -workload firehose -trace 1      # the per-layer ledger
//	go run ./bench -quick                           # smoke: tiny world, one repetition
//	go run ./bench -runs 5 -out a.json              # a set of runs for -compare
//	go run ./bench -compare a.json b.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// workloadTimeout bounds one workload run; the driver's own limit is 180 s.
const workloadTimeout = 170 * time.Second

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (default: all four)")
		seed    = flag.Int64("seed", 1, "world seed; run i of -runs uses seed+i")
		seconds = flag.Int("seconds", defaultSeconds, "measuring time per run: repetitions continue until it is used up")
		trace   = flag.Int("trace", 0, "1 = the traced per-layer ledger run instead of the end-to-end run")
		quick   = flag.Bool("quick", false, "smoke mode: tiny world, one repetition, one daemon")
		runs    = flag.Int("runs", 1, "runs per workload, each with the next seed")
		out     = flag.String("out", "", "append every run's metrics to this JSON file (the input of -compare)")
		compare = flag.Bool("compare", false, "compare two -out files: bench -compare a.json b.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatalf("usage: bench -compare a.json b.json")
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	if flag.NArg() > 0 {
		fatalf("unexpected arguments %q", flag.Args())
	}

	selected := workloads
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fatalf("unknown workload %q", *name)
		}
		selected = []workload{w}
	} else if *quick {
		selected = workloads[:1]
	}
	if *quick {
		*seconds = 0
	}

	// Children die with the harness on every path: normal return, a failed
	// check, the per-workload timeout, and SIGINT/SIGTERM.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		tracked.cleanup()
		os.Exit(130)
	}()

	ctxInfo := runContext()
	fmt.Printf("context: %s\n", ctxInfo)
	ok := true
	var last *runResult
	for _, w := range selected {
		for i := 0; i < *runs; i++ {
			ctx, cancel := context.WithTimeout(context.Background(), workloadTimeout)
			// The context stops the waits that take one; the watchdog stops
			// everything else (a POST blocked on a wedged daemon ends when
			// the daemon is killed).
			watchdog := time.AfterFunc(workloadTimeout, func() {
				fatalf("%s: no result after %s", w.Name, workloadTimeout)
			})
			var res *runResult
			var err error
			if *trace != 0 {
				res, err = runTraced(ctx, w.sizeFor(*seconds, *quick), *seed+int64(i))
			} else {
				res, err = runEndToEnd(ctx, w.sizeFor(*seconds, *quick), *seed+int64(i), *seconds)
			}
			cancel()
			watchdog.Stop()
			tracked.cleanup()
			if err != nil {
				fatalf("%s: %v", w.Name, err)
			}
			res.print(os.Stdout)
			if *out != "" {
				if err := appendRun(*out, ctxInfo, res); err != nil {
					fatalf("%v", err)
				}
			}
			ok = ok && res.Correct
			last = res
		}
	}
	// The driver's contract: the last line of standard output is one JSON
	// object describing the (single) run it asked for.
	line, err := json.Marshal(last.driverLine())
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
	if !ok {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	tracked.cleanup()
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// runResult is one run of one workload: every metric by name, and the
// output checks' verdict.
type runResult struct {
	Workload  string        `json:"workload"`
	Seed      int64         `json:"seed"`
	Trace     bool          `json:"trace"`
	Sizing    string        `json:"sizing"`
	Correct   bool          `json:"correct"`
	Attempted int           `json:"attempted"`
	Failed    int           `json:"failed"`
	Metrics   []metricValue `json:"metrics"`
	Notes     []string      `json:"notes,omitempty"`
	Problems  []string      `json:"problems,omitempty"`
	ledger    *ledger
}

// metricValue is one reported number with the samples behind it.
type metricValue struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	// Spread summarizes the per-repetition samples (for a percentile
	// metric, the per-repetition percentiles); N is the count behind
	// Value, which for latencies is the pooled number of requests or
	// alerts.
	Spread summary `json:"spread"`
	N      int     `json:"n"`
}

func (r *runResult) add(name string, value float64, perRep []float64, n int) {
	def, ok := metricDefs[name]
	if !ok {
		panic("bench: metric " + name + " is not in the registry")
	}
	r.Metrics = append(r.Metrics, metricValue{Name: name, Unit: def.Unit, Value: value, Spread: summarize(perRep), N: n})
}

func (r *runResult) metric(name string) (metricValue, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return metricValue{}, false
}

// driverLine renders the run the way the benchmark driver reads it: with
// trace off exactly the gated end-to-end metrics, with trace on exactly
// the per-layer metrics.
func (r *runResult) driverLine() map[string]any {
	want := driverEndToEnd
	if r.Trace {
		want = driverPerLayer
	}
	metrics := map[string]any{}
	for _, name := range want {
		m, _ := r.metric(name) // absent = not applicable on this workload = 0
		metrics[name] = map[string]any{"value": m.Value, "unit": metricDefs[name].Unit}
	}
	return map[string]any{
		"correct": r.Correct, "attempted": max(r.Attempted, 1), "failed": r.Failed, "metrics": metrics,
	}
}

func (r *runResult) print(w *os.File) {
	kind := "end-to-end"
	if r.Trace {
		kind = "traced ledger"
	}
	fmt.Fprintf(w, "\n== %s (seed %d, %s) ==\n%s\n", r.Workload, r.Seed, kind, r.Sizing)
	fmt.Fprintf(w, "%-40s %14s %-6s %14s %14s %8s\n", "metric", "value", "unit", "q1", "q3", "n")
	for _, m := range r.Metrics {
		fmt.Fprintf(w, "%-40s %14.6g %-6s %14.6g %14.6g %8d\n", m.Name, m.Value, m.Unit, m.Spread.Q1, m.Spread.Q3, m.N)
	}
	for _, n := range r.Notes {
		fmt.Fprintln(w, n)
	}
	if r.ledger != nil {
		r.ledger.printTable(w)
	}
	fmt.Fprintf(w, "checks: correct=%v attempted=%d failed=%d\n", r.Correct, r.Attempted, r.Failed)
	for _, p := range r.Problems {
		fmt.Fprintf(w, "  FAILED: %s\n", p)
	}
}

// outFile is the on-disk form of a set of runs.
type outFile struct {
	Context string       `json:"context"`
	Runs    []*runResult `json:"runs"`
}

func readOutFile(path string) (*outFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f outFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// appendRun adds one run to the -out file, creating it on first use.
func appendRun(path, ctxInfo string, r *runResult) error {
	f, err := readOutFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		f, err = &outFile{Context: ctxInfo}, nil
	}
	if err != nil {
		return err
	}
	f.Runs = append(f.Runs, r)
	b, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
