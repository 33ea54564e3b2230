// Command experiments regenerates every table and figure of the paper's
// evaluation (Section 5 and Appendix C). By default it runs at quick scale
// (seconds to a few minutes per experiment); -full approaches the paper's
// workload sizes.
//
// Usage:
//
//	experiments [-full] [-only substring] [-seed n]
//
// Use -only to run a subset, e.g. -only "Figure 5" or -only "Table 3".
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"rfidtrack/internal/expt"
)

func main() {
	full := flag.Bool("full", false, "run at paper scale (slow)")
	only := flag.String("only", "", "run only artifacts whose ID contains this substring")
	seed := flag.Int64("seed", 1, "simulation seed")
	workers := flag.Int("workers", 0, "worker-pool size of the cluster runtime: total CPU budget shared by the site loop and every site's inference (0 = GOMAXPROCS)")
	flag.Parse()

	sc := expt.QuickScale()
	if *full {
		sc = expt.FullScale()
	}
	sc.Seed = *seed
	sc.Workers = *workers

	type gen struct {
		id string
		fn func(expt.Scale) expt.Table
	}
	gens := []gen{
		{"Figure 4", expt.Figure4},
		{"Figure 5(a)", expt.Figure5a},
		{"Figure 5(b)", expt.Figure5b},
		{"Figure 5(c)", expt.Figure5c},
		{"Figure 5(d)", expt.Figure5d},
		{"Figure 5(e)", expt.Figure5e},
		{"Figure 5(f)", expt.Figure5f},
		{"Figure 6(a)", expt.Figure6a},
		{"Figure 6(b)", expt.Figure6b},
		{"Table 3", expt.Table3},
		{"Table 4", expt.Table4},
		{"Table 5", expt.Table5},
		{"Section 5.4", expt.TableQueries},
		{"Section 5.3", expt.Scalability},
		{"Cluster", expt.ClusterScaling},
		{"Appendix C.4", expt.Sensitivity},
		{"Ablations", expt.Ablations},
	}
	ran := 0
	for _, g := range gens {
		if *only != "" && !strings.Contains(g.id, *only) {
			continue
		}
		ran++
		start := time.Now()
		tbl := g.fn(sc)
		tbl.Fprint(os.Stdout)
		fmt.Printf("(%s took %v)\n\n", g.id, time.Since(start).Round(time.Millisecond))
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "no experiment matches -only %q\n", *only)
		os.Exit(1)
	}
}
