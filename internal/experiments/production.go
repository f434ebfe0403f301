package experiments

import (
	"fmt"
	"time"

	"raven/internal/core"
	"raven/internal/cost"
	"raven/internal/policy"
	"raven/internal/sim"
	"raven/internal/trace"
)

// costTable aliases the cost model's Table 4 builder.
func costTable(inMemRatio, cdnRatio float64) []cost.Scenario {
	return cost.Table4(inMemRatio, cdnRatio)
}

// Cache-size fractions (of unique bytes) standing in for the paper's
// per-trace small/large settings.
const (
	smallFrac = 0.02
	largeFrac = 0.08
)

// prodSizes pairs the two evaluated cache sizes with their report
// labels, so callers never compare floats to recover the label.
var prodSizes = []struct {
	lbl  string
	frac float64
}{{"small", smallFrac}, {"large", largeFrac}}

// prodPolicies are the eight best SOTA algorithms of Fig. 9 plus
// Raven's two goal variants.
var prodPolicies = []string{
	"raven", "raven-ohr", "lrb", "lhr", "lhd", "gdsf",
	"hyperbolic", "lfuda", "lru", "ths4lru",
}

// prodOpts enables the §5.1.4 network model so Fig. 9/10 and Tables
// 2/8 share a single memoized run per (trace, policy, size).
func (r *Runner) prodOpts(p trace.ProductionPreset) sim.Options {
	return sim.Options{Net: netFor(p), WarmupFrac: prodWarmup}
}

// prodRun runs one production-trace configuration (memoized).
func (r *Runner) prodRun(p trace.ProductionPreset, polName string, frac float64) *sim.Result {
	t := r.production(p)
	return r.run(t, polName, capFor(t, frac), r.prodOpts(p))
}

// Fig8 reproduces Fig. 8: the size and popularity characteristics of
// the six production-like traces (plus Table 1-style totals).
func (r *Runner) Fig8() *Report {
	rep := &Report{ID: "fig8", Title: "Production-like trace characteristics (Fig. 8 / Table 1)"}
	rep.Header = []string{"trace", "requests", "objects", "uniqueMB", "meanSize", "maxSize", "zipfSlope"}
	for _, p := range trace.AllProductionPresets {
		t := r.production(p)
		c := trace.Characterize(t)
		rep.Add(c.Name, c.TotalRequests, c.UniqueObjects,
			fmt.Sprintf("%.1f", float64(c.UniqueBytes)/(1<<20)),
			fmt.Sprintf("%.0f", c.MeanSize), c.MaxSize,
			fmt.Sprintf("%.2f", trace.ZipfSlope(t)))
	}
	rep.Notes = append(rep.Notes,
		"CDN-like traces span orders of magnitude in size; Twitter-like sizes are narrow (Fig. 8a)",
		"zipfSlope ≈ -alpha confirms Zipf-like popularity (Fig. 8b)")
	return rep
}

// Fig9 reproduces Fig. 9: OHR and BHR for every production-like trace
// at two cache sizes.
func (r *Runner) Fig9() *Report {
	rep := &Report{ID: "fig9", Title: "OHR/BHR on production-like traces (Fig. 9)"}
	rep.Header = []string{"trace", "size", "policy", "OHR", "BHR"}
	for _, p := range trace.AllProductionPresets {
		for _, sz := range prodSizes {
			lbl, frac := sz.lbl, sz.frac
			for _, name := range prodPolicies {
				res := r.prodRun(p, name, frac)
				rep.Add(string(p), lbl, name, res.OHR, res.BHR)
			}
		}
	}
	rep.Notes = append(rep.Notes,
		"raven-ohr targets OHR (size-weighted priority), raven targets BHR (§3.4)")
	return rep
}

// Fig10 reproduces Fig. 10: backend traffic and average latency.
func (r *Runner) Fig10() *Report {
	rep := &Report{ID: "fig10", Title: "Backend traffic and latency (Fig. 10), small cache size"}
	rep.Header = []string{"trace", "policy", "backendMB", "avgLatency_ms", "p90_ms"}
	for _, p := range trace.AllProductionPresets {
		for _, name := range prodPolicies {
			res := r.prodRun(p, name, smallFrac)
			rep.Add(string(p), name,
				fmt.Sprintf("%.1f", float64(res.Net.BackendBytes)/(1<<20)),
				fmt.Sprintf("%.3f", res.Net.AvgLatency.Seconds()*1e3),
				fmt.Sprintf("%.3f", res.Net.P90Latency.Seconds()*1e3))
		}
	}
	return rep
}

// Table2 reproduces Table 2: simulated average throughput of Raven,
// LHR, LRB and LRU.
func (r *Runner) Table2() *Report {
	rep := &Report{ID: "tab2", Title: "Simulated average throughput (Table 2), large cache size"}
	rep.Header = []string{"trace", "unit", "raven", "lhr", "lrb", "lru"}
	pols := []string{"raven", "lhr", "lrb", "lru"}
	for _, p := range trace.AllProductionPresets {
		unit := "KRPS"
		if p.IsCDN() {
			unit = "Gbps"
		}
		row := []string{string(p), unit}
		for _, name := range pols {
			res := r.prodRun(p, name, largeFrac)
			if p.IsCDN() {
				row = append(row, fmt.Sprintf("%.3f", res.Net.ThroughputGbps))
			} else {
				row = append(row, fmt.Sprintf("%.2f", res.Net.ThroughputKRPS))
			}
		}
		rep.Rows = append(rep.Rows, row)
	}
	rep.Notes = append(rep.Notes,
		"closed-loop serial model: higher hit ratios dominate eviction compute overhead (§5.2.2)")
	return rep
}

// Fig11 reproduces Fig. 11: Raven vs the offline optimum (Belady,
// Belady-Size) and the online optimum HRO (hazard-rate / LHR).
func (r *Runner) Fig11() *Report {
	rep := &Report{ID: "fig11", Title: "Raven vs OPT (Fig. 11), small cache size"}
	rep.Header = []string{"trace", "metric", "bestSOTA", "hro", "raven", "belady", "gapClosed"}
	for _, p := range trace.AllProductionPresets {
		sotas := make([]*sim.Result, 0, 4)
		for _, name := range []string{"lrb", "lhd", "gdsf", "lfuda", "lru"} {
			sotas = append(sotas, r.prodRun(p, name, smallFrac))
		}
		hro := r.prodRun(p, "lhr", smallFrac)
		ohrBest := bestOf(append(sotas, hro), func(x *sim.Result) float64 { return x.OHR })
		bhrBest := bestOf(append(sotas, hro), func(x *sim.Result) float64 { return x.BHR })

		ravenO := r.prodRun(p, "raven-ohr", smallFrac)
		ravenB := r.prodRun(p, "raven", smallFrac)
		belO := r.prodRun(p, "belady-size", smallFrac)
		belB := r.prodRun(p, "belady", smallFrac)

		gapO := gapClosed(ohrBest.OHR, ravenO.OHR, belO.OHR)
		gapB := gapClosed(bhrBest.BHR, ravenB.BHR, belB.BHR)
		rep.Add(string(p), "OHR", ohrBest.OHR, hro.OHR, ravenO.OHR, belO.OHR, fmtPct(gapO))
		rep.Add(string(p), "BHR", bhrBest.BHR, hro.BHR, ravenB.BHR, belB.BHR, fmtPct(gapB))
	}
	rep.Notes = append(rep.Notes,
		"gapClosed = (raven - bestSOTA) / (belady - bestSOTA); the paper reports 37.2% OHR / 29.2% BHR on average")
	return rep
}

func gapClosed(sota, raven, opt float64) float64 {
	if opt <= sota {
		return 0
	}
	return (raven - sota) / (opt - sota)
}

// fig5Presets: the survival ablation uses one trace per family plus
// the two the paper highlights (Wiki 18/19 show the largest gains).
var fig5Presets = []trace.ProductionPreset{
	trace.Wiki18, trace.Wikimedia19, trace.TwitterC29,
}

// noSurvival is Fig. 5's knob: Raven trained without the survival
// term, on the same sequences and so the same draws.
func noSurvival(o *policy.Options) { o.Raven.DisableSurvival = true }

// Fig5 reproduces Fig. 5: the impact of the survival-probability loss
// term, comparing Raven with and without it.
func (r *Runner) Fig5() *Report {
	rep := &Report{ID: "fig5", Title: "Survival-probability ablation (Fig. 5), small cache size"}
	rep.Header = []string{"trace", "metric", "raven", "raven-nosurv"}
	for _, p := range fig5Presets {
		t := r.production(p)
		capacity := capFor(t, smallFrac)
		with := r.prodRun(p, "raven", smallFrac)

		start := time.Now()
		without := r.replay(t, "raven", capacity, r.prodOpts(p), noSurvival)
		r.logf("  fig5 %s nosurv OHR=%.4f (%v)", p, without.OHR, time.Since(start).Round(time.Second))

		rep.Add(string(p), "OHR", with.OHR, without.OHR)
		rep.Add(string(p), "BHR", with.BHR, without.BHR)
	}
	rep.Notes = append(rep.Notes,
		"the survival term teaches the MDN that silent objects have long residuals (§4.2.4)")
	return rep
}

// Table7 reproduces Table 7: training-dataset sizes per trace/setting,
// taken from Raven's training records in the Fig. 9 runs.
func (r *Runner) Table7() *Report {
	rep := &Report{ID: "tab7", Title: "Raven training dataset sizes (Table 7)"}
	rep.Header = []string{"trace", "size", "windows", "avgObjects", "avgSamples"}
	for _, p := range trace.AllProductionPresets {
		for _, sz := range prodSizes {
			lbl, frac := sz.lbl, sz.frac
			res := r.prodRun(p, "raven", frac)
			rv, ok := res.Policies[0].(*core.Raven)
			if !ok || len(rv.TrainStats) == 0 {
				rep.Add(string(p), lbl, 0, 0, 0)
				continue
			}
			var objs, samples int
			for _, ts := range rv.TrainStats {
				objs += ts.Objects
				samples += ts.Samples
			}
			n := len(rv.TrainStats)
			rep.Add(string(p), lbl, n, objs/n, samples/n)
		}
	}
	return rep
}

// Table8 reproduces Table 8: one-hit wonders per million requests.
func (r *Runner) Table8() *Report {
	rep := &Report{ID: "tab8", Title: "One-hit wonders per 1M requests (Table 8), small cache size"}
	pols := []string{"lru", "lfuda", "lrb", "lhr", "raven", "belady"}
	rep.Header = append([]string{"trace"}, pols...)
	for _, p := range trace.AllProductionPresets {
		row := []string{string(p)}
		for _, name := range pols {
			res := r.prodRun(p, name, smallFrac)
			perM := float64(res.Stats.OneHitWonders) / float64(res.Stats.Requests) * 1e6
			row = append(row, fmt.Sprintf("%.0f", perM))
		}
		rep.Rows = append(rep.Rows, row)
	}
	rep.Notes = append(rep.Notes, "Belady admits the fewest one-hit wonders; Raven should be next (Appendix E)")
	return rep
}

// Fig17 reproduces Fig. 17: request and byte shares over object-size
// bins.
func (r *Runner) Fig17() *Report {
	rep := &Report{ID: "fig17", Title: "Requests/bytes over object-size bins (Fig. 17)"}
	return r.binReport(rep, trace.RequestsBySize, trace.BytesBySize)
}

// Fig18 reproduces Fig. 18: request and byte shares over
// object-frequency bins.
func (r *Runner) Fig18() *Report {
	rep := &Report{ID: "fig18", Title: "Requests/bytes over object-frequency bins (Fig. 18)"}
	return r.binReport(rep, trace.RequestsByFrequency, trace.BytesByFrequency)
}

func (r *Runner) binReport(rep *Report, reqFn, byteFn func(*trace.Trace, int) trace.BinWeights) *Report {
	const bins = 9
	rep.Header = []string{"trace", "series"}
	for i := 0; i < bins; i++ {
		rep.Header = append(rep.Header, fmt.Sprintf("10^%d", i))
	}
	for _, p := range trace.AllProductionPresets {
		t := r.production(p)
		for _, series := range []struct {
			name string
			bw   trace.BinWeights
		}{
			{"requests", reqFn(t, bins)},
			{"bytes", byteFn(t, bins)},
		} {
			row := []string{string(p), series.name}
			for _, f := range series.bw.Fractions {
				row = append(row, fmt.Sprintf("%.3f", f))
			}
			rep.Rows = append(rep.Rows, row)
		}
	}
	return rep
}

// Fig19 reproduces Fig. 19: Raven (no admission control) vs admission
// algorithms (AdaptSize, original LHR with admission).
func (r *Runner) Fig19() *Report {
	rep := &Report{ID: "fig19", Title: "Raven vs admission algorithms (Fig. 19), small cache size"}
	rep.Header = []string{"trace", "metric", "adaptsize", "lhr-adm", "bestSOTA", "raven"}
	for _, p := range []trace.ProductionPreset{trace.Wiki18, trace.Wikimedia19, trace.TwitterC29, trace.TwitterC52} {
		ad := r.prodRun(p, "adaptsize", smallFrac)
		lhrAdm := r.prodRun(p, "lhr-adm", smallFrac)
		var sotas []*sim.Result
		for _, name := range []string{"lrb", "lhr", "gdsf", "lfuda", "lru"} {
			sotas = append(sotas, r.prodRun(p, name, smallFrac))
		}
		bestO := bestOf(sotas, func(x *sim.Result) float64 { return x.OHR })
		bestB := bestOf(sotas, func(x *sim.Result) float64 { return x.BHR })
		rep.Add(string(p), "OHR", ad.OHR, lhrAdm.OHR, bestO.OHR, r.prodRun(p, "raven-ohr", smallFrac).OHR)
		rep.Add(string(p), "BHR", ad.BHR, lhrAdm.BHR, bestB.BHR, r.prodRun(p, "raven", smallFrac).BHR)
	}
	return rep
}

// Fig20 reproduces Fig. 20: more cache sizes for a subset of
// workloads — Twitter-C29 OHR and Wikimedia BHR over five sizes.
func (r *Runner) Fig20() *Report {
	rep := &Report{ID: "fig20", Title: "More cache sizes (Fig. 20)"}
	fracs := []float64{0.01, 0.02, 0.04, 0.08, 0.16}
	rep.Header = []string{"trace", "metric", "policy"}
	for _, f := range fracs {
		rep.Header = append(rep.Header, fmt.Sprintf("C=%.0f%%", 100*f))
	}
	pols := []string{"raven-ohr", "raven", "lrb", "lhr", "lru"}
	add := func(p trace.ProductionPreset, metric string) {
		t := r.production(p)
		for _, name := range pols {
			row := []string{string(p), metric, name}
			for _, f := range fracs {
				res := r.run(t, name, capFor(t, f), r.prodOpts(p))
				v := res.OHR
				if metric == "BHR" {
					v = res.BHR
				}
				row = append(row, fmt.Sprintf("%.4f", v))
			}
			rep.Rows = append(rep.Rows, row)
		}
	}
	add(trace.TwitterC29, "OHR")
	add(trace.Wikimedia19, "BHR")
	return rep
}

// Fig21 reproduces Fig. 21: the full 14-baseline comparison.
func (r *Runner) Fig21() *Report {
	rep := &Report{ID: "fig21", Title: "All 14 baselines (Fig. 21), small cache size"}
	rep.Header = []string{"policy", "twitter29 OHR", "wikimedia19 BHR"}
	names := append([]string{"raven-ohr", "raven"}, policy.Baselines14...)
	for _, name := range names {
		o := r.prodRun(trace.TwitterC29, name, smallFrac)
		b := r.prodRun(trace.Wikimedia19, name, smallFrac)
		rep.Add(name, o.OHR, b.BHR)
	}
	return rep
}

// Table4 reproduces Table 4: the AWS cost comparison, with the
// LRU-capacity multiple measured from the Fig. 20 sweeps rather than
// assumed.
func (r *Runner) Table4() *Report {
	rep := &Report{ID: "tab4", Title: "Cluster cost comparison (Table 4)"}
	rep.Header = []string{"scenario", "capacityRatio", "raven_$/mo", "lru_$/mo", "savings"}

	// Measured ratio: find the smallest LRU capacity multiple (of the
	// small size) whose hit ratio matches Raven's at the small size.
	inMem := r.capacityRatio(trace.TwitterC29, "raven-ohr", func(x *sim.Result) float64 { return x.OHR })
	cdn := r.capacityRatio(trace.Wikimedia19, "raven", func(x *sim.Result) float64 { return x.BHR })
	for _, s := range costTable(inMem, cdn) {
		rep.Add(s.Name, fmt.Sprintf("%.1fx", s.CapacityRatio),
			fmt.Sprintf("%.0f", s.RavenMonthly), fmt.Sprintf("%.0f", s.LRUMonthly), fmtPct(s.Savings()))
	}
	rep.Notes = append(rep.Notes,
		"capacity ratios measured from the Fig. 20 sweeps (paper assumes 4x in-memory, 2x CDN)")
	return rep
}

// capacityRatio finds how many times the small cache LRU needs to
// match Raven's small-cache hit ratio, searching the Fig. 20 size grid.
func (r *Runner) capacityRatio(p trace.ProductionPreset, ravenName string, metric func(*sim.Result) float64) float64 {
	t := r.production(p)
	target := metric(r.prodRun(p, ravenName, smallFrac))
	for _, mult := range []float64{1, 2, 4, 8} {
		res := r.run(t, "lru", capFor(t, smallFrac*mult), r.prodOpts(p))
		if metric(res) >= target {
			return mult
		}
	}
	return 8
}
