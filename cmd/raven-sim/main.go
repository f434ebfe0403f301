// Command raven-sim replays a cache trace through one or more eviction
// policies and reports hit ratios, latency, traffic and eviction-time
// statistics. It also writes (-out) or characterizes (-analyze) the
// trace it built instead of replaying it.
//
// Usage:
//
//	raven-sim -trace wiki18 -policies raven,lrb,lru -cachefrac 0.02
//	raven-sim -synthetic uniform -requests 200000 -capacity 100
//	raven-sim -file trace.txt -policies lru -capacity 1048576
//	raven-sim -trace wiki18 -scale 0.5 -out wiki18.txt
//	raven-sim -file wiki18.txt -analyze
//
// Traces come from the built-in production-like generators (-trace),
// the synthetic renewal generators (-synthetic), or a "time key size"
// file (-file, optionally gzipped).
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"raven/internal/cache"
	"raven/internal/core"
	"raven/internal/policy"
	"raven/internal/sim"
	"raven/internal/trace"
)

func main() {
	var (
		prodName  = flag.String("trace", "", "production-like preset: wiki18|wiki19|wikimedia19|twitter17|twitter29|twitter52")
		synthName = flag.String("synthetic", "", "synthetic interarrival law: poisson|uniform|pareto")
		file      = flag.String("file", "", "trace file in 'time key size' format (a .gz file is decompressed)")
		requests  = flag.Int("requests", 200000, "synthetic trace length")
		objects   = flag.Int("objects", 1000, "synthetic object count")
		varSizes  = flag.Bool("varsizes", false, "synthetic: variable object sizes U(10,1600)")
		scale     = flag.Float64("scale", 0.5, "production trace scale")
		policies  = flag.String("policies", "lru,lfuda,lrb,lhr,raven", "comma-separated policy names")
		capacity  = flag.Int64("capacity", 0, "cache capacity in bytes (overrides -cachefrac)")
		cacheFrac = flag.Float64("cachefrac", 0.02, "cache capacity as a fraction of unique bytes")
		warmup    = flag.Float64("warmup", 0.3, "fraction of requests excluded from statistics")
		netKind   = flag.String("net", "", "latency model: cdn|memory|'' (off)")
		shards    = flag.Int("shards", 1, "cache shards, one policy instance each (rounded up to a power of two)")
		ckptDir   = flag.String("checkpoint", "", "Raven checkpoint directory: resume from the newest valid generation, save after trainings")
		ckptEvery = flag.Int("checkpoint-every", 1, "save a checkpoint generation every N completed trainings")
		seed      = flag.Int64("seed", 42, "random seed")
		listPols  = flag.Bool("list", false, "list available policies and exit")
		out       = flag.String("out", "", "write the trace to this file instead of replaying it (a .gz path is gzip-compressed; /dev/stdout prints it)")
		analyze   = flag.Bool("analyze", false, "print the trace's characteristics instead of replaying it")

		// Research defaults: the simulator keeps the fast path and the
		// SLO clock off so replays stay bit-identical run to run; the
		// serving binary (ravencached) defaults them on.
		admitMode = flag.String("admit", "", "admission front-end: off|doorkeeper|learned (learned needs a reuse-predicting policy: raven/raven-ohr)")

		scoreCache  = flag.Bool("score-cache", false, "Raven cached-score eviction fast path")
		inference32 = flag.Bool("inference32", false, "Raven float32 inference kernels for eviction decisions (training stays float64)")
		budget      = flag.Duration("decision-budget", 0, "Raven per-eviction-decision deadline; overruns fall back to LRU (0 = off, negative refused)")
	)
	flag.Parse()

	if *listPols {
		fmt.Println(strings.Join(policy.Names(), "\n"))
		return
	}
	// A value the generators or the policy would silently replace (a
	// zero count or scale by its default, a negative budget by none, a
	// second trace source by the first), or one the replay would refuse
	// only after the trace was built (a capacity, a shard count, a
	// warm-up share, an admission mode), is refused before anything
	// runs.
	admitErr := policy.AdmissionOptions{Mode: *admitMode}.Validate()
	sources := 0
	for _, s := range []string{*prodName, *synthName, *file} {
		if s != "" {
			sources++
		}
	}
	for _, bad := range []struct {
		ok  bool
		msg string
	}{
		{sources == 1, fmt.Sprintf("give exactly one of -trace, -synthetic, -file (got %d)", sources)},
		{*ckptEvery >= 1, fmt.Sprintf("-checkpoint-every %d must be at least 1", *ckptEvery)},
		{*requests >= 1, fmt.Sprintf("-requests %d must be at least 1", *requests)},
		{*objects >= 1, fmt.Sprintf("-objects %d must be at least 1", *objects)},
		{*scale > 0, fmt.Sprintf("-scale %v must be positive", *scale)},
		{*capacity >= 0, fmt.Sprintf("-capacity %d must not be negative", *capacity)},
		{*cacheFrac > 0, fmt.Sprintf("-cachefrac %v must be positive", *cacheFrac)},
		{*budget >= 0, fmt.Sprintf("-decision-budget %v must not be negative", *budget)},
		{*shards >= 1, fmt.Sprintf("-shards %d must be at least 1", *shards)},
		{*warmup >= 0 && *warmup < 1, fmt.Sprintf("-warmup %v must be in [0, 1)", *warmup)},
		{admitErr == nil, fmt.Sprintf("-admit: %v", admitErr)},
	} {
		if !bad.ok {
			fail(bad.msg)
		}
	}
	var net *sim.NetModel
	switch *netKind {
	case "cdn":
		net = sim.CDNModel()
	case "memory":
		net = sim.InMemoryModel()
	case "":
	default:
		fail(fmt.Sprintf("unknown -net %q", *netKind))
	}
	// Every name resolves before anything replays.
	var names []string
	var factories []policy.Factory
	for _, name := range strings.Split(*policies, ",") {
		if name = strings.TrimSpace(name); name == "" {
			continue
		}
		factory, err := policy.Lookup(name)
		if err != nil {
			fail(err)
		}
		names, factories = append(names, name), append(factories, factory)
	}
	if len(names) == 0 {
		fail(fmt.Sprintf("-policies %q names no policy", *policies))
	}

	tr, err := loadTrace(*prodName, *synthName, *file, *requests, *objects, *varSizes, *scale, *seed)
	if err != nil {
		fail(err)
	}
	if *out != "" || *analyze {
		if *out != "" {
			if err := trace.WriteFile(*out, tr); err != nil {
				fail(err)
			}
		}
		if *analyze {
			printAnalysis(tr)
		}
		return
	}
	cap := *capacity
	if cap == 0 {
		cap = int64(float64(tr.UniqueBytes()) * *cacheFrac)
		if cap < 64 {
			cap = 64
		}
	}
	opts := sim.Options{Capacity: cap, WarmupFrac: *warmup, Seed: *seed, Net: net}

	fmt.Printf("trace=%s requests=%d objects=%d uniqueBytes=%d capacity=%d\n",
		tr.Name, tr.Len(), tr.UniqueObjects(), tr.UniqueBytes(), cap)
	fmt.Printf("%-18s %8s %8s %12s %12s %10s\n", "policy", "OHR", "BHR", "evictions", "evict(ns)", "wall")
	for i, name := range names {
		popts := policy.Options{
			Capacity:        cap,
			TrainWindow:     tr.Duration() / 8,
			Seed:            *seed,
			CheckpointDir:   *ckptDir,
			CheckpointEvery: *ckptEvery,
			ScoreCache:      *scoreCache,
			Inference32:     *inference32,
			DecisionBudget:  *budget,
			Admission:       policy.AdmissionOptions{Mode: *admitMode},
		}
		res, err := sim.Run(tr, *shards, factories[i].PerShard(popts, *shards), opts)
		if err != nil {
			fail(err)
		}
		label := name
		if res.Shards > 1 {
			label = fmt.Sprintf("%s[x%d]", name, res.Shards)
		}
		fmt.Printf("%-18s %8.4f %8.4f %12d %12.0f %10v\n",
			label, res.OHR, res.BHR, res.Stats.Evictions, res.EvictionNanos.Mean, res.WallTime.Round(1e6))
		for shard, p := range res.Policies {
			r, ok := cache.Unwrap(p).(*core.Raven)
			if !ok {
				continue
			}
			if *ckptDir != "" {
				if r.CkptResume.Path != "" {
					fmt.Printf("  shard%d: resumed checkpoint generation %d (%s), %d corrupt skipped\n",
						shard, r.CkptResume.Seq, r.CkptResume.Path, r.CkptResume.CorruptSkipped)
				} else if r.CkptResume.CorruptSkipped > 0 {
					fmt.Printf("  shard%d: no valid checkpoint (%d corrupt skipped), starting cold\n",
						shard, r.CkptResume.CorruptSkipped)
				}
			}
			if n := len(r.HealthLog); n > 0 {
				fmt.Printf("  shard%d: health=%s transitions=%d rollbacks=%d\n",
					shard, r.Health(), n, countRollbacks(r.TrainStats))
			}
			if r.CkptErr != nil {
				fmt.Fprintf(os.Stderr, "raven-sim: shard%d checkpoint: %v\n", shard, r.CkptErr)
			}
		}
		if opts.Net != nil {
			fmt.Printf("  avgLat=%v p90=%v backendMB=%.1f throughput=%.2fGbps/%.1fKRPS\n",
				res.Net.AvgLatency, res.Net.P90Latency,
				float64(res.Net.BackendBytes)/(1<<20),
				res.Net.ThroughputGbps, res.Net.ThroughputKRPS)
		}
	}
}

// fail reports msg and exits 1.
func fail(msg any) {
	fmt.Fprintln(os.Stderr, "raven-sim:", msg)
	os.Exit(1)
}

// countRollbacks tallies guard-tripped training windows.
func countRollbacks(recs []core.TrainRecord) int {
	n := 0
	for _, rec := range recs {
		if rec.RolledBack {
			n++
		}
	}
	return n
}

func loadTrace(prod, synth, file string, requests, objects int, varSizes bool, scale float64, seed int64) (*trace.Trace, error) {
	switch {
	case file != "":
		return trace.ReadFile(file)
	case prod != "":
		p := trace.ProductionPreset(prod)
		if !slices.Contains(trace.AllProductionPresets, p) {
			return nil, fmt.Errorf("unknown production preset %q (known: %v)", prod, trace.AllProductionPresets)
		}
		return trace.ProductionTrace(p, scale, seed), nil
	default:
		d, err := trace.ParseInterarrival(synth)
		if err != nil {
			return nil, err
		}
		return trace.Synthetic(trace.SynthConfig{
			Objects: objects, Requests: requests, Interarrival: d,
			VariableSizes: varSizes, Seed: seed,
		}), nil
	}
}

// printAnalysis prints the trace's characteristics: its totals, the
// Zipf slope of its popularity, and how requests spread over object
// sizes and bytes over object frequencies.
func printAnalysis(tr *trace.Trace) {
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
}

func printBins(bw trace.BinWeights) {
	for i, f := range bw.Fractions {
		if f < 0.001 {
			continue
		}
		fmt.Printf("  %-22s %5.1f%%\n", bw.Labels[i], 100*f)
	}
}
