// Command raven-sim replays a cache trace through one or more eviction
// policies and reports hit ratios, latency, traffic and eviction-time
// statistics.
//
// Usage:
//
//	raven-sim -trace wiki18 -policies raven,lrb,lru -cachefrac 0.02
//	raven-sim -synthetic uniform -requests 200000 -capacity 100
//	raven-sim -file trace.txt -policies lru -capacity 1048576
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
		workers   = flag.Int("workers", 1, "Raven training goroutines (results are bit-identical for any value; eviction decisions are serial)")
		shards    = flag.Int("shards", 1, "cache shards, one policy instance each (rounded up to a power of two)")
		ckptDir   = flag.String("checkpoint", "", "Raven checkpoint directory: resume from the newest valid generation, save after trainings")
		ckptEvery = flag.Int("checkpoint-every", 1, "save a checkpoint generation every N completed trainings")
		seed      = flag.Int64("seed", 42, "random seed")
		listPols  = flag.Bool("list", false, "list available policies and exit")

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
	// zero count or scale by its default, a negative budget by none) is
	// refused instead.
	for _, bad := range []struct {
		ok  bool
		msg string
	}{
		{*ckptEvery >= 1, fmt.Sprintf("-checkpoint-every %d must be at least 1", *ckptEvery)},
		{*requests >= 1, fmt.Sprintf("-requests %d must be at least 1", *requests)},
		{*objects >= 1, fmt.Sprintf("-objects %d must be at least 1", *objects)},
		{*scale > 0, fmt.Sprintf("-scale %v must be positive", *scale)},
		{*cacheFrac > 0, fmt.Sprintf("-cachefrac %v must be positive", *cacheFrac)},
		{*budget >= 0, fmt.Sprintf("-decision-budget %v must not be negative", *budget)},
	} {
		if !bad.ok {
			fmt.Fprintln(os.Stderr, "raven-sim:", bad.msg)
			os.Exit(1)
		}
	}

	tr, err := loadTrace(*prodName, *synthName, *file, *requests, *objects, *varSizes, *scale, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "raven-sim:", err)
		os.Exit(1)
	}
	cap := *capacity
	if cap == 0 {
		cap = int64(float64(tr.UniqueBytes()) * *cacheFrac)
		if cap < 64 {
			cap = 64
		}
	}
	opts := sim.Options{Capacity: cap, WarmupFrac: *warmup, Seed: *seed}
	switch *netKind {
	case "cdn":
		opts.Net = sim.CDNModel()
	case "memory":
		opts.Net = sim.InMemoryModel()
	case "":
	default:
		fmt.Fprintf(os.Stderr, "raven-sim: unknown -net %q\n", *netKind)
		os.Exit(1)
	}

	fmt.Printf("trace=%s requests=%d objects=%d uniqueBytes=%d capacity=%d\n",
		tr.Name, tr.Len(), tr.UniqueObjects(), tr.UniqueBytes(), cap)
	fmt.Printf("%-18s %8s %8s %12s %12s %10s\n", "policy", "OHR", "BHR", "evictions", "evict(ns)", "wall")
	for _, name := range strings.Split(*policies, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		popts := policy.Options{
			Capacity:        cap,
			TrainWindow:     tr.Duration() / 8,
			Seed:            *seed,
			Workers:         *workers,
			CheckpointDir:   *ckptDir,
			CheckpointEvery: *ckptEvery,
			ScoreCache:      *scoreCache,
			Inference32:     *inference32,
			DecisionBudget:  *budget,
			Admission:       policy.AdmissionOptions{Mode: *admitMode},
		}
		factory, err := policy.Lookup(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "raven-sim:", err)
			os.Exit(1)
		}
		res, err := sim.Run(tr, *shards, factory.PerShard(popts, *shards), opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "raven-sim:", err)
			os.Exit(1)
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
	case synth != "":
		d, err := trace.ParseInterarrival(synth)
		if err != nil {
			return nil, err
		}
		return trace.Synthetic(trace.SynthConfig{
			Objects: objects, Requests: requests, Interarrival: d,
			VariableSizes: varSizes, Seed: seed,
		}), nil
	default:
		return nil, fmt.Errorf("one of -trace, -synthetic, -file is required")
	}
}
