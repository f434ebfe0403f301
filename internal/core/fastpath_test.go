package core

import (
	"math"
	"slices"
	"testing"
	"time"

	"raven/internal/cache"
	"raven/internal/nn"
	"raven/internal/obs"
	"raven/internal/trace"
)

// fastHarness drives a Raven policy directly (no cache engine) so
// tests control exactly which objects' histories advance between
// decisions. The model is installed rather than trained — the fast
// path only needs deterministic weights — and TrainWindow is huge so
// no retraining ever swaps it.
type fastHarness struct {
	r        *Raven
	now      int64
	resident []cache.Key
	next     cache.Key
}

func newFastHarness(mut func(*Config)) *fastHarness {
	cfg := Config{
		TrainWindow: 1 << 40,
		ScoreCache:  true,
		Net:         nn.Config{Hidden: 8, MLPHidden: 12, K: 4},
		Train:       nn.TrainConfig{MaxEpochs: 3, Patience: 2},
		Seed:        13,
	}
	if mut != nil {
		mut(&cfg)
	}
	r := New(cfg)
	r.net = nn.NewNet(nn.Config{Hidden: 8, MLPHidden: 12, K: 4, TimeScale: 50, Seed: 11})
	h := &fastHarness{r: r, next: 1000}
	// Admit an initial resident population with a little history each.
	for k := cache.Key(0); k < 16; k++ {
		h.now += 3
		req := cache.Request{Time: h.now, Key: k, Size: 1}
		r.OnMiss(req)
		r.OnAdmit(req)
		h.resident = append(h.resident, k)
	}
	h.touchAll()
	return h
}

// touchAll advances every resident's history, dirtying all of them.
func (h *fastHarness) touchAll() {
	for _, k := range h.resident {
		h.now += 2
		h.r.OnHit(cache.Request{Time: h.now, Key: k, Size: 1})
	}
}

// touchOne advances a single resident's history.
func (h *fastHarness) touchOne(i int) {
	h.now += 2
	h.r.OnHit(cache.Request{Time: h.now, Key: h.resident[i], Size: 1})
}

// evictAdmit runs one full decision: Victim, OnEvict, then admit a
// brand-new object. Returns the victim.
func (h *fastHarness) evictAdmit(t *testing.T) cache.Key {
	t.Helper()
	v, ok := h.r.Victim()
	if !ok {
		t.Fatal("no victim from a populated policy")
	}
	h.r.OnEvict(v)
	for i, k := range h.resident {
		if k == v {
			h.resident = append(h.resident[:i], h.resident[i+1:]...)
			break
		}
	}
	h.now += 2
	req := cache.Request{Time: h.now, Key: h.next, Size: 1}
	h.next++
	h.r.OnMiss(req)
	h.r.OnAdmit(req)
	h.resident = append(h.resident, req.Key)
	return v
}

// TestScoreCacheAllDirtyMatchesUncached: when every candidate is dirty
// at every decision, the cached fast path and the forced-rescore
// (uncached) fast path predict and stamp the same candidates and must
// produce identical victim sequences.
func TestScoreCacheAllDirtyMatchesUncached(t *testing.T) {
	a := newFastHarness(nil)
	b := newFastHarness(nil)
	b.r.forceRescore = true
	for round := 0; round < 40; round++ {
		// Touch every resident so every sampled candidate is dirty in
		// BOTH policies; the caches then cannot diverge.
		a.touchAll()
		b.touchAll()
		va := a.evictAdmit(t)
		vb := b.evictAdmit(t)
		if va != vb {
			t.Fatalf("round %d: cached victim %d != uncached victim %d", round, va, vb)
		}
	}
}

// TestScoreStampIsClosedForm: every score a decision stamps is
// lastSeen + TimeScale·exp(clamp(Σ_k w_k·μ_k)) of the mixture it was
// predicted from, bit for bit, under f64 and f32 inference alike.
func TestScoreStampIsClosedForm(t *testing.T) {
	for _, f32 := range []bool{false, true} {
		h := newFastHarness(func(c *Config) { c.Inference32 = f32 })
		r := h.r
		stamped := 0
		for round := 0; round < 10; round++ {
			h.touchOne(round % len(h.resident))
			if _, ok := r.Victim(); !ok {
				t.Fatal("no victim from a populated policy")
			}
			for i, j := range r.scrDirty {
				mix := &r.scrMix[i]
				lr := 0.0
				for k := range mix.W {
					lr += mix.W[k] * mix.Mu[k]
				}
				lr = math.Max(-nn.ExpClamp, math.Min(lr, nn.ExpClamp))
				rc := r.scrRec[j]
				want := float64(rc.lastSeen) + r.net.Cfg.TimeScale*math.Exp(lr)
				if got := r.tab.sides.At(rc.res).score; math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("f32=%v round %d slot %d: stamped %v, want %v", f32, round, j, got, want)
				}
				stamped++
			}
			h.evictAdmit(t)
		}
		if stamped == 0 {
			t.Fatalf("f32=%v: no decision stamped a score", f32)
		}
	}
}

// TestScoreCacheSamplerIgnoresRescores: under the score cache the
// policy's RNG feeds only the candidate sampler, so a decision sequence
// samples the same candidate slots whether or not the residents were
// touched between decisions — however many candidates each decision
// had to re-score.
func TestScoreCacheSamplerIgnoresRescores(t *testing.T) {
	slots := func(touch bool) [][]int {
		h := newFastHarness(func(c *Config) { c.CandidateSample = 6 })
		if h.r.cfg.CandidateSample >= len(h.resident) {
			t.Fatal("the sample must be smaller than the resident set")
		}
		var out [][]int
		for round := 0; round < 30; round++ {
			if touch {
				h.touchAll()
			}
			h.evictAdmit(t)
			out = append(out, slices.Clone(h.r.scrIdx))
		}
		return out
	}
	touched, idle := slots(true), slots(false)
	for round := range touched {
		if !slices.Equal(touched[round], idle[round]) {
			t.Fatalf("round %d: sampled slots %v with touched residents, %v without", round, touched[round], idle[round])
		}
	}
}

// TestScoreStampsBitExact: a stamped score is state that later
// decisions read, so a nondeterministic input that nudges a stamp must
// show even where it flips no eviction. Two identical decision
// sequences must leave every resident's stamp bit-identical.
func TestScoreStampsBitExact(t *testing.T) {
	stamps := func() []uint64 {
		h := newFastHarness(nil)
		for round := 0; round < 40; round++ {
			h.touchOne(round % len(h.resident))
			h.evictAdmit(t)
		}
		var out []uint64
		for _, k := range h.resident {
			rc := h.r.tab.recs.At(h.r.tab.find(k))
			if sd := h.r.tab.sides.At(rc.res); sd.scoreVer >= 0 {
				out = append(out, math.Float64bits(sd.score))
			}
		}
		return out
	}
	a, b := stamps(), stamps()
	if len(a) == 0 {
		t.Fatal("no resident carries a stamped score")
	}
	if !slices.Equal(a, b) {
		t.Errorf("two identical runs stamped different scores:\n run1: %x\n run2: %x", a, b)
	}
}

// TestScoreCacheMetricsReconcile checks the accounting contract under
// both estimators: over any run, score_cache_hits + score_rescores
// equals the total number of candidates Victim considered. The joint
// win count predicts every candidate, so it reports them all as
// rescores and no hits; under the score cache a skewed touch pattern
// actually produces cache hits.
func TestScoreCacheMetricsReconcile(t *testing.T) {
	for _, est := range estimators {
		t.Run(est.name, func(t *testing.T) {
			ro := &obs.RavenObs{}
			h := newFastHarness(func(c *Config) { c.Obs = ro; c.ScoreCache = est.scoreCache })
			ro.ScoreCacheHits.Add(-ro.ScoreCacheHits.Load()) // ignore harness setup
			ro.ScoreRescores.Add(-ro.ScoreRescores.Load())
			total := int64(0)
			for round := 0; round < 50; round++ {
				h.touchOne(round % 4) // skew: only a few residents ever move
				// CandidateSample (64) exceeds the resident count, so every
				// decision considers every resident.
				total += int64(len(h.resident))
				h.evictAdmit(t)
			}
			hits, rescores := ro.ScoreCacheHits.Load(), ro.ScoreRescores.Load()
			if hits+rescores != total {
				t.Fatalf("hits(%d) + rescores(%d) = %d, want %d candidates considered",
					hits, rescores, hits+rescores, total)
			}
			if !est.scoreCache {
				if hits != 0 {
					t.Fatalf("the joint win count reported %d score-cache hits; it caches nothing", hits)
				}
				return
			}
			if hits == 0 {
				t.Fatal("skewed trace produced zero score-cache hits; the cache is not caching")
			}
			if rescores == 0 {
				t.Fatal("zero rescores; dirty candidates were never re-scored")
			}
		})
	}
}

// TestFastPathInference32MatchesRanking sanity-checks float32
// inference under both estimators: it must run, never pick a
// non-resident victim, and — since the f32 forward pass differs from
// f64 by ~1e-6 relative, which flips only a decision whose top scores
// are about that close — it should agree with f64 on nearly every
// decision.
func TestFastPathInference32MatchesRanking(t *testing.T) {
	for _, est := range estimators {
		t.Run(est.name, func(t *testing.T) {
			a := newFastHarness(func(c *Config) { c.ScoreCache = est.scoreCache })
			b := newFastHarness(func(c *Config) { c.ScoreCache = est.scoreCache; c.Inference32 = true })
			agree, total := 0, 60
			for round := 0; round < total; round++ {
				a.touchAll()
				b.touchAll()
				va := a.evictAdmit(t)
				vb := b.evictAdmit(t)
				if va == vb {
					agree++
				}
			}
			// The two runs' resident sets part once a single decision
			// diverges, so demand strong but not perfect agreement.
			if agree < total*8/10 {
				t.Fatalf("f32 and f64 agreed on %d/%d decisions; expected >= %d", agree, total, total*8/10)
			}
		})
	}
}

// TestSLOOverrunDegradesAndRecovers is the acceptance drill, under both
// estimators: a slow predictor makes decisions overrun
// Config.DecisionBudget, every overrun is served from the LRU fallback
// and counted, a streak of them degrades health exactly like a training
// trip, and a completed training restores Healthy.
func TestSLOOverrunDegradesAndRecovers(t *testing.T) {
	for _, est := range estimators {
		t.Run(est.name, func(t *testing.T) {
			ro := &obs.RavenObs{}
			h := newFastHarness(func(c *Config) { c.Obs = ro; c.ScoreCache = est.scoreCache })
			h.r.cfg.DecisionBudget = 2 * time.Millisecond
			h.r.cfg.evictFault = func() { time.Sleep(time.Millisecond) }

			for i := 0; i < sloTripsBeforeDegrade; i++ {
				h.touchAll() // keep candidates dirty so the slow predict step runs
				lru := h.r.lruTail()
				v := h.evictAdmit(t)
				if v != lru {
					t.Fatalf("overrun decision %d evicted %d, want LRU tail %d", i, v, lru)
				}
			}
			if got := ro.SLOOverruns.Load(); got != sloTripsBeforeDegrade {
				t.Fatalf("raven.slo_overruns = %d, want %d", got, sloTripsBeforeDegrade)
			}
			if got := ro.FallbackEvictions.Load(); got != sloTripsBeforeDegrade {
				t.Fatalf("raven.fallback_evictions = %d, want %d: every overrun is served from LRU", got, sloTripsBeforeDegrade)
			}
			if h.r.Health() != Degraded {
				t.Fatalf("health after %d consecutive overruns = %v, want Degraded", sloTripsBeforeDegrade, h.r.Health())
			}
			last := h.r.HealthLog[len(h.r.HealthLog)-1]
			if last.Reason != "eviction decision SLO overrun" {
				t.Fatalf("transition reason = %q", last.Reason)
			}

			// Recovery: remove the fault and complete a real training window.
			h.r.cfg.evictFault = nil
			h.r.cfg.DecisionBudget = 0
			tr := trace.Synthetic(trace.SynthConfig{Objects: 60, Requests: 6000, Interarrival: trace.Poisson, Seed: 9})
			h.r.cfg.TrainWindow = tr.Duration() / 2 // make the boundary reachable
			base := h.now + 1
			for _, req := range tr.Reqs {
				req.Time += base
				h.r.OnMiss(req)
			}
			if h.r.Health() != Healthy {
				t.Fatalf("health after successful retrain = %v, want Healthy", h.r.Health())
			}
			if _, ok := h.r.Victim(); !ok {
				t.Fatal("no victim after recovery")
			}
		})
	}
}

// TestSLOMetResetsStreak: overruns separated by in-budget decisions
// never accumulate into a guard trip, under either estimator.
func TestSLOMetResetsStreak(t *testing.T) {
	for _, est := range estimators {
		t.Run(est.name, func(t *testing.T) {
			ro := &obs.RavenObs{}
			h := newFastHarness(func(c *Config) { c.Obs = ro; c.ScoreCache = est.scoreCache })
			h.r.cfg.DecisionBudget = 2 * time.Millisecond
			slow := func() { time.Sleep(time.Millisecond) }
			for i := 0; i < 2*sloTripsBeforeDegrade; i++ {
				if i%2 == 0 {
					h.r.cfg.evictFault = slow // overrun
				} else {
					h.r.cfg.evictFault = nil // comfortably in budget
				}
				h.touchAll()
				h.evictAdmit(t)
			}
			if got := ro.SLOOverruns.Load(); got != sloTripsBeforeDegrade {
				t.Fatalf("raven.slo_overruns = %d, want %d", got, sloTripsBeforeDegrade)
			}
			if h.r.Health() != Healthy {
				t.Fatalf("health = %v after alternating overruns, want Healthy (streak must reset)", h.r.Health())
			}
		})
	}
}
