package main

import (
	"fmt"
	"io"
	"sort"
)

// Verdicts of -compare, per (workload, metric).
const (
	verdictSame       = "same"
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// verdict judges b against baseline a for one metric. The run-to-run
// spread decides first: when either side's quartiles are further apart
// than the bound, the metric cannot resolve a change of the bound's size
// and is reported as unresolved, never as unchanged. Otherwise a median
// that moved by more than the bound is better or worse by the metric's
// direction, and anything less is the same.
func verdict(a, b summary, def metricDef) string {
	if def.Bound > 0 && (a.spread() > def.Bound || b.spread() > def.Bound) {
		return verdictUnresolved
	}
	if a.Median == b.Median {
		return verdictSame
	}
	if a.Median == 0 {
		// Only failed_share has a zero baseline: any failure is worse.
		return verdictWorse
	}
	change := (b.Median - a.Median) / a.Median
	if def.HigherBetter {
		change = -change
	}
	switch {
	case change > def.Bound:
		return verdictWorse
	case change < -def.Bound:
		return verdictBetter
	default:
		return verdictSame
	}
}

// runValues collects, per workload and metric, the value every untraced
// run in the file reported.
func runValues(f *outFile) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range f.Runs {
		if r.Trace {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for _, m := range r.Metrics {
			out[r.Workload][m.Name] = append(out[r.Workload][m.Name], m.Value)
		}
	}
	return out
}

// compareFiles prints, for every end-to-end (workload, metric) present in
// both files, both medians and interquartile ranges over the files' runs,
// the bound and the verdict. It returns 1 when any pairing is worse or
// unresolved, so a script can gate on it.
func compareFiles(w io.Writer, pathA, pathB string) int {
	fa, err := readOutFile(pathA)
	if err != nil {
		fmt.Fprintln(w, err)
		return 2
	}
	fb, err := readOutFile(pathB)
	if err != nil {
		fmt.Fprintln(w, err)
		return 2
	}
	fmt.Fprintf(w, "a: %s\n   %s\nb: %s\n   %s\n", pathA, fa.Context, pathB, fb.Context)
	va, vb := runValues(fa), runValues(fb)
	names := append(append([]string(nil), driverEndToEnd...), endToEndExtra...)
	var wls []string
	for wl := range va {
		if vb[wl] != nil {
			wls = append(wls, wl)
		}
	}
	sort.Strings(wls)
	fmt.Fprintf(w, "%-14s %-26s %12s %10s %12s %10s %4s %6s  %s\n",
		"workload", "metric", "a median", "a iqr", "b median", "b iqr", "n", "bound", "verdict")
	bad := 0
	for _, wl := range wls {
		for _, name := range names {
			xa, xb := va[wl][name], vb[wl][name]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			sa, sb := summarize(xa), summarize(xb)
			v := verdict(sa, sb, metricDefs[name])
			if v == verdictWorse || v == verdictUnresolved {
				bad++
			}
			fmt.Fprintf(w, "%-14s %-26s %12.5g %10.3g %12.5g %10.3g %4d %6.2f  %s\n",
				wl, name, sa.Median, sa.Q3-sa.Q1, sb.Median, sb.Q3-sb.Q1, min(sa.N, sb.N), metricDefs[name].Bound, v)
		}
	}
	if bad > 0 {
		fmt.Fprintf(w, "%d pairings worse or unresolved\n", bad)
		return 1
	}
	return 0
}
