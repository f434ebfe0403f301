// Command raven-trace generates and analyzes cache traces.
//
// Usage:
//
//	raven-trace -gen wiki18 -scale 0.5 -out wiki18.txt
//	raven-trace -gen-synth pareto -requests 100000 -out pareto.txt
//	raven-trace -analyze wiki18.txt
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"

	"raven/internal/trace"
)

func main() {
	var (
		gen      = flag.String("gen", "", "generate a production-like preset trace")
		genSynth = flag.String("gen-synth", "", "generate a synthetic trace: poisson|uniform|pareto")
		requests = flag.Int("requests", 100000, "synthetic request count")
		objects  = flag.Int("objects", 1000, "synthetic object count")
		varSizes = flag.Bool("varsizes", false, "synthetic variable sizes")
		scale    = flag.Float64("scale", 0.5, "production trace scale")
		seed     = flag.Int64("seed", 42, "random seed")
		out      = flag.String("out", "", "output file ('' = stdout; a .gz file is gzip-compressed)")
		analyze  = flag.String("analyze", "", "analyze a trace file instead of generating")
	)
	flag.Parse()

	// A zero count or scale would be silently replaced by the
	// generator's default; refuse it instead.
	for _, bad := range []struct {
		ok  bool
		msg string
	}{
		{*requests >= 1, fmt.Sprintf("-requests %d must be at least 1", *requests)},
		{*objects >= 1, fmt.Sprintf("-objects %d must be at least 1", *objects)},
		{*scale > 0, fmt.Sprintf("-scale %v must be positive", *scale)},
	} {
		if !bad.ok {
			fmt.Fprintln(os.Stderr, "raven-trace:", bad.msg)
			os.Exit(1)
		}
	}

	if *analyze != "" {
		if err := analyzeFile(*analyze); err != nil {
			fmt.Fprintln(os.Stderr, "raven-trace:", err)
			os.Exit(1)
		}
		return
	}

	var tr *trace.Trace
	switch {
	case *gen != "":
		p := trace.ProductionPreset(*gen)
		if !slices.Contains(trace.AllProductionPresets, p) {
			fmt.Fprintf(os.Stderr, "raven-trace: unknown production preset %q (known: %v)\n", *gen, trace.AllProductionPresets)
			os.Exit(1)
		}
		tr = trace.ProductionTrace(p, *scale, *seed)
	case *genSynth != "":
		d, err := trace.ParseInterarrival(*genSynth)
		if err != nil {
			fmt.Fprintln(os.Stderr, "raven-trace:", err)
			os.Exit(1)
		}
		tr = trace.Synthetic(trace.SynthConfig{
			Objects: *objects, Requests: *requests, Interarrival: d,
			VariableSizes: *varSizes, Seed: *seed,
		})
	default:
		fmt.Fprintln(os.Stderr, "raven-trace: one of -gen, -gen-synth, -analyze required")
		os.Exit(2)
	}

	var err error
	if *out != "" {
		err = trace.WriteFile(*out, tr)
	} else {
		err = trace.WriteCSV(os.Stdout, tr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "raven-trace:", err)
		os.Exit(1)
	}
}

func analyzeFile(path string) error {
	tr, err := trace.ReadFile(path)
	if err != nil {
		return err
	}
	c := trace.Characterize(tr)
	fmt.Printf("trace:        %s\n", c.Name)
	fmt.Printf("requests:     %d\n", c.TotalRequests)
	fmt.Printf("total bytes:  %d\n", c.TotalBytes)
	fmt.Printf("objects:      %d\n", c.UniqueObjects)
	fmt.Printf("unique bytes: %d\n", c.UniqueBytes)
	fmt.Printf("duration:     %d ticks\n", c.Duration)
	fmt.Printf("mean size:    %.1f B (max %d)\n", c.MeanSize, c.MaxSize)
	fmt.Printf("zipf slope:   %.2f\n", trace.ZipfSlope(tr))

	fmt.Println("\nrequests by object size (log10 bins):")
	printBins(trace.RequestsBySize(tr))
	fmt.Println("bytes by object frequency (log10 bins):")
	printBins(trace.BytesByFrequency(tr))
	return nil
}

func printBins(bw trace.BinWeights) {
	for i, f := range bw.Fractions {
		if f < 0.001 {
			continue
		}
		fmt.Printf("  %-22s %5.1f%%\n", bw.Labels[i], 100*f)
	}
}
