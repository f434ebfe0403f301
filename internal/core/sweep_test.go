//go:build sweep

package core_test

import (
	"math"
	"testing"

	"raven/internal/cache"
	"raven/internal/core"
	"raven/internal/obs"
	"raven/internal/policy"
	"raven/internal/sim"
	"raven/internal/trace"
)

// TestHistoryCeilingSweep chooses recordsPerResident, the g of the
// record ceiling max(g × resident, ghostFloor), between 4 and 8. Every
// simulator trace has fewer keys than ghostFloor, so the sweep runs with
// the floor at 0 and the per-resident allowance alone binds. Each cell
// replays raven-sim's setup (2% of unique bytes, window = duration/8,
// 30% warm-up, -seed s for the trace and the policy) at g = 4 and g = 8
// on the same trace, and reports the paired mean difference g4 − g8 in
// OHR and BHR with its standard error over seeds.
//
// The rule: g = 4 if in every (trace, estimator) cell both means are no
// lower than −2 paired standard errors, else g = 8. (A cell where the
// two replays agree seed for seed has mean and error 0, and passes.)
// When every cell ran, the test fails if the rule's choice is not the
// constant the code carries. The table it
// prints is EXPERIMENTS.md "Ablations and §6.1.1 overhead"'s. Run it
// with
//
//	go test -tags sweep -run TestHistoryCeilingSweep -v -timeout 0 ./internal/core/
//
// (the two estimators are subtests; -run TestHistoryCeilingSweep/served
// runs one).
func TestHistoryCeilingSweep(t *testing.T) {
	traces := []trace.ProductionPreset{trace.Wiki18, trace.Wiki19, trace.Wikimedia19, trace.TwitterC29, trace.TwitterC52}
	estimators := []struct {
		name  string
		scale float64
		seeds int
		opts  func() policy.Options
	}{
		// raven-sim's default Raven: the win-count estimator.
		{"win-count", 0.15, 10, func() policy.Options { return policy.Options{} }},
		// What ravencached serves, with the decision budget off so that
		// a replay is a function of its seed. Its per-seed spread is
		// about 5 pp, hence the seeds.
		{"served", 0.3, 20, func() policy.Options {
			o := policy.Served()
			o.DecisionBudget = 0
			return o
		}},
	}
	admit, ran := true, 0
	for _, est := range estimators {
		t.Run(est.name, func(t *testing.T) {
			t.Logf("| trace | estimator | seeds | OHR g=8 | ΔOHR g4−g8 (pp) | ΔBHR g4−g8 (pp) | records g=8 → g=4 |")
			for _, p := range traces {
				var dOHR, dBHR []float64
				var ohr8, rec4, rec8 float64
				for seed := int64(1); seed <= int64(est.seeds); seed++ {
					tr := trace.ProductionTrace(p, est.scale, seed)
					capacity := max(int64(float64(tr.UniqueBytes())*0.02), 64)
					o := est.opts()
					o.Capacity, o.TrainWindow, o.Seed = capacity, tr.Duration()/8, seed
					g4, r4 := replay(t, tr, o, 4)
					g8, r8 := replay(t, tr, o, 8)
					dOHR = append(dOHR, 100*(g4.OHR-g8.OHR))
					dBHR = append(dBHR, 100*(g4.BHR-g8.BHR))
					ohr8 += g8.OHR / float64(est.seeds)
					rec4 += float64(r4) / float64(est.seeds)
					rec8 += float64(r8) / float64(est.seeds)
				}
				mo, so := meanSE(dOHR)
				mb, sb := meanSE(dBHR)
				if mo < -2*so || mb < -2*sb {
					admit = false
				}
				t.Logf("| %s | %s | %d | %.4f | %+.2f ± %.2f | %+.2f ± %.2f | %.0f → %.0f |",
					p, est.name, est.seeds, ohr8, mo, so, mb, sb, rec8, rec4)
			}
			ran++
		})
	}
	if ran < len(estimators) {
		return // a -run filter left cells out: no choice to make
	}
	g := 8
	if admit {
		g = 4
	}
	t.Logf("rule: g = %d", g)
	if g != core.RecordsPerResident {
		t.Errorf("the sweep chooses g = %d; recordsPerResident is %d", g, core.RecordsPerResident)
	}
}

// replay runs o's Raven over tr on one shard with the record ceiling
// max(g × resident, 0), and returns the result and the records its
// table held at the end.
func replay(t *testing.T, tr *trace.Trace, o policy.Options, g int) (*sim.Result, int64) {
	t.Helper()
	f, err := policy.Lookup("raven")
	if err != nil {
		t.Fatal(err)
	}
	o.Obs = &obs.RavenObs{}
	shard := f.PerShard(o, 1)
	res, err := sim.Run(tr, 1, func(i int, capacity int64) (cache.Policy, error) {
		p, err := shard(i, capacity)
		if err != nil {
			return nil, err
		}
		core.SetHistoryBound(cache.Unwrap(p).(*core.Raven), g, 0)
		return p, nil
	}, sim.Options{Capacity: o.Capacity, WarmupFrac: 0.3, Seed: o.Seed})
	if err != nil {
		t.Fatal(err)
	}
	return res, o.Obs.HistoryRecords.Load()
}

// meanSE returns the mean of xs and its standard error.
func meanSE(xs []float64) (mean, se float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	var ss float64
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	return mean, math.Sqrt(ss / float64(len(xs)-1) / float64(len(xs)))
}
