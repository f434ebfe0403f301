// Command raven-exp regenerates the paper's tables and figures.
//
// Usage:
//
//	raven-exp -list
//	raven-exp -exp fig9
//	raven-exp -exp all -quick
//	raven-exp -exp fig3 -csv
//
// Each experiment prints the same rows/series the paper reports; see
// DESIGN.md for the experiment index and EXPERIMENTS.md for recorded
// paper-vs-measured comparisons.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"raven/internal/experiments"
)

func main() {
	var (
		exp     = flag.String("exp", "", "experiment ID (fig2a..fig21, tab2..tab8, ablations) or 'all'")
		quick   = flag.Bool("quick", false, "short fixed traces, Raven trained as served; refuses -scale ('all' takes 9 min 14 s on a 2-vCPU Intel Xeon VM)")
		scale   = flag.Float64("scale", 1, "workload scale multiplier")
		seed    = flag.Int64("seed", 42, "random seed")
		csvOut  = flag.Bool("csv", false, "emit CSV instead of an aligned table")
		list    = flag.Bool("list", false, "list experiment IDs and exit")
		verbose = flag.Bool("v", false, "log per-run progress to stderr")
	)
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(experiments.All, "\n"))
		return
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "raven-exp: -exp is required (try -list)")
		os.Exit(2)
	}
	if *quick {
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "scale" {
				// -quick replays fixed short traces, whatever the scale.
				fmt.Fprintln(os.Stderr, "raven-exp: -scale has no effect with -quick; pass one or the other")
				os.Exit(1)
			}
		})
	}
	if !(*scale > 0) {
		// The runner would read 0 as its default scale, 1.
		fmt.Fprintf(os.Stderr, "raven-exp: -scale %v must be positive\n", *scale)
		os.Exit(1)
	}
	cfg := experiments.Config{Quick: *quick, Scale: *scale, Seed: *seed}
	if *verbose {
		cfg.Log = os.Stderr
	}
	runner := experiments.NewRunner(cfg)

	ids := []string{*exp}
	if *exp == "all" {
		ids = experiments.All
	}
	for _, id := range ids {
		rep, err := runner.Run(id)
		if err != nil {
			fmt.Fprintln(os.Stderr, "raven-exp:", err)
			os.Exit(1)
		}
		if *csvOut {
			rep.CSV(os.Stdout)
		} else {
			rep.Fprint(os.Stdout)
		}
	}
}
