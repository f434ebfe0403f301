package sim

import (
	"math"
	"testing"
	"time"

	"raven/internal/cache"
	"raven/internal/core"
	"raven/internal/obs"
	"raven/internal/policy"
	"raven/internal/trace"
)

// modelEra counts the evictions decided once the policy has a model:
// the denominator of model_evict_frac, whose complement's numerator is
// raven.fallback_evictions (counted from the first model on as well).
// It forwards Admit and Flush exactly as the engine's own timing
// decorator does, so wrapping changes no decision.
type modelEra struct {
	cache.Policy
	raven     *core.Raven
	evictions int64
}

func (m *modelEra) Victim() (cache.Key, bool) {
	k, ok := m.Policy.Victim()
	if ok && m.raven.Net() != nil {
		m.evictions++
	}
	return k, ok
}

func (m *modelEra) Admit(req cache.Request) cache.Decision { return cache.PolicyAdmit(m.Policy, req) }

func (m *modelEra) Unwrap() cache.Policy { return m.Policy }

// qualityRow is one Raven configuration of the quality table. Rows with
// NaN floors only report; the others assert that Raven's OHR and BHR
// beat LRU's by at least minOHR and minBHR, that at least minModelFrac
// of the evictions after the first model were the model's, and that
// health ends Healthy.
type qualityRow struct {
	name                         string
	opts                         func(*policy.Options) // applied over raven-sim's defaults
	minOHR, minBHR, minModelFrac float64
}

// TestQuality is the hit-ratio referee: on a small CDN trace (wiki18)
// and a small in-memory one (twitter52), each replayed at raven-sim's
// defaults (-scale 0.05 -cachefrac 0.02 -warmup 0.3 -seed 42, training
// window = trace duration / 8), it reports Raven's OHR/BHR against LRU,
// the share of the Belady−LRU gap it captures, model_evict_frac and the
// health it ends in.
//
// The floors come from seeds 1–5 and 42: a change that only reshuffles
// randomness moves this seed's numbers within that spread, so each
// floor sits just under the worst seed's. Measured uplift over LRU, at
// seed 42 and over the six seeds (model_evict_frac read 1 and health
// Healthy on every seed):
//
//	                     OHR − LRU                BHR − LRU
//	wiki18 defaults      +6.1 pp (+1.9 to +10.2)  +3.5 pp (+1.0 to +10.0)
//	wiki18 score-cache   +1.6 pp (+1.0 to +6.3)   −0.8 pp (−0.8 to +6.0)
//	wiki18 admission    +10.4 pp (+0.4 to +11.9)  +7.0 pp (+4.0 to +11.0)
//	twitter52 defaults   +1.3 pp (−1.9 to +1.3)   +1.4 pp (−2.6 to +1.4)
//
// twitter52 rests on trace.Production's burst generator, whose arrival
// chains branch, so its floor only says Raven stays within the seed
// spread of LRU; it is re-judged when the generator is fixed. The
// score-cache row is the served estimator (score cache, float32
// inference) on the virtual clock: no decision budget, so no wall clock
// is read and its floors assert. The served configuration adds the 50µs
// decision budget, reads the wall clock, and so only reports: on two
// x86-64 cores it ends Degraded or in Fallback, with model_evict_frac
// 0.55–0.74 over the six seeds.
func TestQuality(t *testing.T) {
	if testing.Short() {
		t.Skip("replays two traces under Raven (~7 s)")
	}
	const seed = 42
	scoreCache := func(o *policy.Options) { o.ScoreCache, o.Inference32 = true, true }
	served := func(o *policy.Options) {
		scoreCache(o)
		o.DecisionBudget = 50 * time.Microsecond
	}
	learned := func(o *policy.Options) { o.Admission = policy.AdmissionOptions{Mode: "learned"} }
	report := math.NaN()
	for _, tc := range []struct {
		preset trace.ProductionPreset
		rows   []qualityRow
	}{
		{trace.Wiki18, []qualityRow{
			{"defaults", nil, 0.01, 0.005, 0.99},
			{"score-cache", scoreCache, 0.005, -0.01, 0.99},
			{"served", served, report, report, report},
			{"admission", learned, 0, 0.03, 0.99},
		}},
		{trace.TwitterC52, []qualityRow{
			{"defaults", nil, -0.02, -0.03, 0.99},
		}},
	} {
		tr := trace.ProductionTrace(tc.preset, 0.05, seed)
		capacity := max(int64(float64(tr.UniqueBytes())*0.02), 64)
		opts := Options{Capacity: capacity, WarmupFrac: 0.3, Seed: seed}
		replay := func(name string, o policy.Options, wrap func(cache.Policy) cache.Policy) *Result {
			t.Helper()
			f, err := policy.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			built := f.PerShard(o, 1)
			res, err := Run(tr, 1, func(shard int, capacity int64) (cache.Policy, error) {
				p, err := built(shard, capacity)
				if err != nil || wrap == nil {
					return p, err
				}
				return wrap(p), nil
			}, opts)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		lru := replay("lru", policy.Options{Capacity: capacity, Seed: seed}, nil)
		belady := replay("belady", policy.Options{Capacity: capacity, Seed: seed}, nil)
		t.Logf("%-9s %-9s   OHR %.4f  BHR %.4f", tc.preset, "lru", lru.OHR, lru.BHR)
		t.Logf("%-9s %-9s   OHR %.4f  BHR %.4f", tc.preset, "belady", belady.OHR, belady.BHR)
		for _, row := range tc.rows {
			ro := &obs.RavenObs{}
			o := policy.Options{Capacity: capacity, TrainWindow: tr.Duration() / 8, Seed: seed, Obs: ro}
			if row.opts != nil {
				row.opts(&o)
			}
			var era *modelEra
			res := replay("raven", o, func(p cache.Policy) cache.Policy {
				era = &modelEra{Policy: p, raven: cache.Unwrap(p).(*core.Raven)}
				return era
			})
			modelFrac := 0.0
			if era.evictions > 0 {
				modelFrac = 1 - float64(ro.FallbackEvictions.Load())/float64(era.evictions)
			}
			dOHR, dBHR := res.OHR-lru.OHR, res.BHR-lru.BHR
			health := era.raven.Health()
			t.Logf("%-9s raven/%-11s OHR %.4f  BHR %.4f  ΔOHR %+.4f  ΔBHR %+.4f  Belady headroom %3.0f%%  model_evict_frac %.4f  health_end %s",
				tc.preset, row.name, res.OHR, res.BHR, dOHR, dBHR,
				100*dOHR/(belady.OHR-lru.OHR), modelFrac, health)
			if math.IsNaN(row.minOHR) {
				continue
			}
			if dOHR < row.minOHR || dBHR < row.minBHR {
				t.Errorf("%s raven/%s: OHR %+.4f and BHR %+.4f over LRU, want at least %+.4f and %+.4f",
					tc.preset, row.name, dOHR, dBHR, row.minOHR, row.minBHR)
			}
			if modelFrac < row.minModelFrac {
				t.Errorf("%s raven/%s: the model decided %.4f of the evictions after the first fit, want at least %.2f",
					tc.preset, row.name, modelFrac, row.minModelFrac)
			}
			if health != core.Healthy {
				t.Errorf("%s raven/%s: health ends %s, want %s", tc.preset, row.name, health, core.Healthy)
			}
		}
	}
}
