package experiments

import (
	"fmt"

	"raven/internal/core"
	"raven/internal/sim"
	"raven/internal/stats"
	"raven/internal/trace"
)

var synthTriple = []trace.Interarrival{trace.Poisson, trace.Uniform, trace.Pareto}

// fig2aPolicies are the §3.5 competitors on unit-size traces.
var fig2aPolicies = []string{
	"raven", "lrb", "lhr", "parrot", "predictivemarker",
	"hyperbolic", "lfuda", "gdsf", "lru", "lhd",
}

// synthUnitCapacity is the paper's C=100-objects setting.
const synthUnitCapacity = 100

// Fig2a reproduces Fig. 2a: hit ratios on the three synthetic traces
// with identical object sizes, C = 100 objects.
func (r *Runner) Fig2a() *Report {
	rep := &Report{ID: "fig2a", Title: "Hit ratios on synthetic traces, unit size, C=100 objects"}
	rep.Header = append([]string{"policy"}, "poisson", "uniform", "pareto")
	// RankOrderEvery matches the Fig. 3 / Table 6 runs so the memoized
	// results are shared across those experiments.
	opts := sim.Options{WarmupFrac: synthWarmup, RankOrderEvery: 10}
	cols := make(map[string][]string)
	for _, d := range synthTriple {
		t := r.synthetic(d, false)
		for _, name := range fig2aPolicies {
			res := r.run(t, name, synthUnitCapacity, opts)
			cols[name] = append(cols[name], fmt.Sprintf("%.4f", res.OHR))
		}
	}
	for _, name := range fig2aPolicies {
		rep.Rows = append(rep.Rows, append([]string{name}, cols[name]...))
	}
	rep.Notes = append(rep.Notes, "first half of each trace is warmup/training (Appendix C.1)")
	return rep
}

// fig2bcPolicies excludes Parrot and PredictiveMarker, which cannot
// handle variable object sizes (§3.5).
var fig2bcPolicies = []string{
	"raven-ohr", "raven", "lrb", "lhr", "hyperbolic", "lfuda", "gdsf", "lru", "lhd",
}

// Fig2bc reproduces Fig. 2b/2c: OHR and BHR on the variable-size
// synthetic traces with C = 10% of unique bytes.
func (r *Runner) Fig2bc() *Report {
	rep := &Report{ID: "fig2bc", Title: "OHR/BHR on synthetic traces, variable size, C=10% of unique bytes"}
	rep.Header = []string{"policy", "metric", "poisson", "uniform", "pareto"}
	opts := sim.Options{WarmupFrac: synthWarmup}
	type key struct{ name, metric string }
	cols := make(map[key][]string)
	for _, d := range synthTriple {
		t := r.synthetic(d, true)
		capacity := capFor(t, 0.10)
		for _, name := range fig2bcPolicies {
			res := r.run(t, name, capacity, opts)
			cols[key{name, "OHR"}] = append(cols[key{name, "OHR"}], fmt.Sprintf("%.4f", res.OHR))
			cols[key{name, "BHR"}] = append(cols[key{name, "BHR"}], fmt.Sprintf("%.4f", res.BHR))
		}
	}
	for _, metric := range []string{"OHR", "BHR"} {
		for _, name := range fig2bcPolicies {
			rep.Rows = append(rep.Rows, append([]string{name, metric}, cols[key{name, metric}]...))
		}
	}
	return rep
}

// rankPolicies are the four learning policies compared in Fig. 3.
var rankPolicies = []string{"raven", "lrb", "lhr", "parrot"}

func (r *Runner) rankErrors(d trace.Interarrival, name string) []float64 {
	t := r.synthetic(d, false)
	res := r.run(t, name, synthUnitCapacity, sim.Options{
		WarmupFrac:     synthWarmup,
		RankOrderEvery: 10,
	})
	return res.RankErrors
}

// Fig3 reproduces Fig. 3: the CDF of rank-order errors on the Uniform
// trace, reported at fixed error values.
func (r *Runner) Fig3() *Report {
	rep := &Report{ID: "fig3", Title: "CDF of rank-order errors, Uniform trace, C=100"}
	errPoints := []float64{0, 1, 2, 5, 10, 20, 40, 60, 80}
	rep.Header = []string{"policy"}
	for _, e := range errPoints {
		rep.Header = append(rep.Header, fmt.Sprintf("F(%.0f)", e))
	}
	for _, name := range rankPolicies {
		cdf := stats.CDF(r.rankErrors(trace.Uniform, name))
		row := []string{name}
		for _, e := range errPoints {
			row = append(row, fmt.Sprintf("%.3f", stats.CDFAt(cdf, e)))
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep
}

// Table6 reproduces Table 6: rank-order error statistics on the three
// synthetic traces.
func (r *Runner) Table6() *Report {
	rep := &Report{ID: "tab6", Title: "Rank-order error statistics (Table 6)"}
	rep.Header = []string{"trace", "policy", "mean", "median", "p90", "stddev"}
	for _, d := range synthTriple {
		for _, name := range rankPolicies {
			s := stats.Summarize(r.rankErrors(d, name))
			rep.Add(d.String(), name, s.Mean, s.Median, s.P90, s.StdDev)
		}
	}
	return rep
}

// Fig14 reproduces Fig. 14: the PDF (histogram) of rank-order errors.
func (r *Runner) Fig14() *Report {
	rep := &Report{ID: "fig14", Title: "PDF of rank-order errors (Fig. 14), C=100"}
	bins := []float64{0, 1, 2, 5, 10, 20, 40, 60, 80, 101}
	rep.Header = []string{"trace", "policy"}
	for i := 0; i+1 < len(bins); i++ {
		rep.Header = append(rep.Header, fmt.Sprintf("[%.0f,%.0f)", bins[i], bins[i+1]))
	}
	for _, d := range synthTriple {
		for _, name := range rankPolicies {
			errs := r.rankErrors(d, name)
			counts := make([]float64, len(bins)-1)
			for _, e := range errs {
				for i := 0; i+1 < len(bins); i++ {
					if e >= bins[i] && e < bins[i+1] {
						counts[i]++
						break
					}
				}
			}
			row := []string{d.String(), name}
			for _, c := range counts {
				row = append(row, fmt.Sprintf("%.3f", c/float64(len(errs))))
			}
			rep.Rows = append(rep.Rows, row)
		}
	}
	return rep
}

// Fig13 reproduces Fig. 13: OHR vs cache size, unit-size traces.
func (r *Runner) Fig13() *Report {
	rep := &Report{ID: "fig13", Title: "OHR vs cache size, synthetic unit-size traces (Fig. 13)"}
	sizes := []int64{50, 100, 200, 400}
	rep.Header = []string{"trace", "policy"}
	for _, c := range sizes {
		rep.Header = append(rep.Header, fmt.Sprintf("C=%d", c))
	}
	pols := []string{"raven", "lrb", "lhr", "lfuda", "lru", "belady"}
	opts := sim.Options{WarmupFrac: synthWarmup, RankOrderEvery: 10}
	for _, d := range synthTriple {
		t := r.synthetic(d, false)
		for _, name := range pols {
			row := []string{d.String(), name}
			for _, c := range sizes {
				row = append(row, fmt.Sprintf("%.4f", r.run(t, name, c, opts).OHR))
			}
			rep.Rows = append(rep.Rows, row)
		}
	}
	return rep
}

func (r *Runner) synthSizeSweep(id, title, metric string) *Report {
	rep := &Report{ID: id, Title: title}
	fracs := []float64{0.05, 0.10, 0.20, 0.40}
	rep.Header = []string{"trace", "policy"}
	for _, f := range fracs {
		rep.Header = append(rep.Header, fmt.Sprintf("C=%.0f%%", 100*f))
	}
	pols := []string{"raven-ohr", "raven", "lrb", "lhr", "gdsf", "lru"}
	opts := sim.Options{WarmupFrac: synthWarmup}
	for _, d := range synthTriple {
		t := r.synthetic(d, true)
		for _, name := range pols {
			row := []string{d.String(), name}
			for _, f := range fracs {
				res := r.run(t, name, capFor(t, f), opts)
				v := res.OHR
				if metric == "BHR" {
					v = res.BHR
				}
				row = append(row, fmt.Sprintf("%.4f", v))
			}
			rep.Rows = append(rep.Rows, row)
		}
	}
	return rep
}

// Fig15 reproduces Fig. 15: OHR vs cache size, variable-size traces.
func (r *Runner) Fig15() *Report {
	return r.synthSizeSweep("fig15", "OHR vs cache size, variable-size synthetic traces (Fig. 15)", "OHR")
}

// Fig16 reproduces Fig. 16: BHR vs cache size, variable-size traces.
func (r *Runner) Fig16() *Report {
	return r.synthSizeSweep("fig16", "BHR vs cache size, variable-size synthetic traces (Fig. 16)", "BHR")
}

// ravenWithM builds a Raven config with a given residual sample count.
func (r *Runner) ravenWithM(t *trace.Trace, m int) *core.Raven {
	cfg := core.Config{
		TrainWindow:     t.Duration() / 8,
		ResidualSamples: m,
		Seed:            r.Cfg.Seed + int64(m),
	}
	r.trainShape(&cfg, 25, 5)
	return core.New(cfg)
}

var residualMs = []int{1, 10, 30, 100, 300}

// Fig6 reproduces Fig. 6: residual-sample-size M vs hit ratio.
func (r *Runner) Fig6() *Report {
	rep := &Report{ID: "fig6", Title: "Residual sample size M vs OHR (Fig. 6)"}
	rep.Header = []string{"M", "poisson", "uniform", "pareto"}
	rows := make(map[int][]string)
	for _, d := range synthTriple {
		t := r.synthetic(d, false)
		for _, m := range residualMs {
			res := r.simulate(t, r.ravenWithM(t, m), sim.Options{
				Capacity: synthUnitCapacity, WarmupFrac: synthWarmup, Seed: r.Cfg.Seed,
			})
			r.logf("  fig6 M=%-4d %-8s OHR=%.4f", m, d, res.OHR)
			rows[m] = append(rows[m], fmt.Sprintf("%.4f", res.OHR))
		}
	}
	for _, m := range residualMs {
		rep.Rows = append(rep.Rows, append([]string{fmt.Sprint(m)}, rows[m]...))
	}
	rep.Notes = append(rep.Notes, "hit ratio saturates with M; the paper picks M=100")
	return rep
}

// Fig7 reproduces Fig. 7: residual-sample-size M vs average eviction
// time (measured wall clock, microseconds).
func (r *Runner) Fig7() *Report {
	rep := &Report{ID: "fig7", Title: "Residual sample size M vs mean eviction time (Fig. 7)"}
	rep.Header = []string{"M", "mean_us", "p90_us"}
	t := r.synthetic(trace.Uniform, false)
	for _, m := range residualMs {
		res := r.simulate(t, r.ravenWithM(t, m), sim.Options{
			Capacity: synthUnitCapacity, WarmupFrac: synthWarmup, Seed: r.Cfg.Seed,
		})
		rep.Add(m, res.EvictionNanos.Mean/1e3, res.EvictionNanos.P90/1e3)
	}
	rep.Notes = append(rep.Notes, "eviction time grows roughly linearly in M (O(M) estimator, §3.3)")
	return rep
}

// Ablations measures the design knobs DESIGN.md calls out: eviction
// candidate count, mixture components, GRU hidden size, training
// window — all on the Uniform trace.
func (r *Runner) Ablations() *Report {
	rep := &Report{ID: "ablations", Title: "Raven design ablations (Uniform trace, C=100)"}
	rep.Header = []string{"knob", "value", "OHR", "evict_us"}
	t := r.synthetic(trace.Uniform, false)
	base := func() core.Config {
		cfg := core.Config{TrainWindow: t.Duration() / 8, Seed: r.Cfg.Seed}
		r.trainShape(&cfg, 25, 5)
		return cfg
	}
	runCfg := func(knob, val string, cfg core.Config) {
		res := r.simulate(t, core.New(cfg), sim.Options{
			Capacity: synthUnitCapacity, WarmupFrac: synthWarmup, Seed: r.Cfg.Seed,
		})
		r.logf("  ablation %s=%s OHR=%.4f", knob, val, res.OHR)
		rep.Add(knob, val, res.OHR, res.EvictionNanos.Mean/1e3)
	}
	for _, cs := range []int{8, 16, 32, 64, 128} {
		cfg := base()
		cfg.CandidateSample = cs
		runCfg("candidates", fmt.Sprint(cs), cfg)
	}
	for _, k := range []int{1, 4, 8, 16} {
		cfg := base()
		cfg.Net.K = k
		runCfg("mixtureK", fmt.Sprint(k), cfg)
	}
	for _, h := range []int{4, 8, 16, 32} {
		cfg := base()
		cfg.Net.Hidden = h
		runCfg("gruHidden", fmt.Sprint(h), cfg)
	}
	for _, div := range []int64{16, 8, 4, 2} {
		cfg := base()
		cfg.TrainWindow = t.Duration() / div
		runCfg("window", fmt.Sprintf("dur/%d", div), cfg)
	}
	return rep
}
