package core

import (
	"fmt"
	"sync"
	"testing"

	"raven/internal/cache"
	"raven/internal/nn"
	"raven/internal/obs"
	"raven/internal/stats"
	"raven/internal/trace"
)

// estimators are Victim's two scoring steps, the rows of the eviction
// alloc test and benchmark; each also runs under both inference widths.
var estimators = []struct {
	name       string
	scoreCache bool
}{{"win-count", false}, {"score-cache", true}}

// fitted is a model fitted once per test binary, on one window of a
// short trace, and shared by every deciding Raven: Victim only reads
// it.
var fitted struct {
	once sync.Once
	net  *nn.Net
	tr   *trace.Trace
}

// decidingRaven returns a Raven holding the shared fitted model over a
// cache of 40 unit-size objects filled by the trace's tail, its first
// decision made so every scratch buffer is grown and every resident
// embedded. It never retrains.
func decidingRaven(tb testing.TB, scoreCache, f32 bool) (*Raven, *obs.RavenObs) {
	tb.Helper()
	fitted.once.Do(func() {
		tr := trace.Synthetic(trace.SynthConfig{
			Objects: 200, Requests: 8000, Interarrival: trace.Poisson, Seed: 5,
		})
		r := New(Config{
			TrainWindow:     tr.Duration()/2 + 1,
			MaxTrainObjects: 300,
			Net:             nn.Config{Hidden: 8, MLPHidden: 12, K: 4},
			Train:           nn.TrainConfig{MaxEpochs: 5, Patience: 2},
			Seed:            7,
		})
		fill(r, tr.Reqs)
		fitted.net, fitted.tr = r.Net(), tr
	})
	if fitted.net == nil {
		tb.Fatal("raven never trained a model")
	}
	ro := &obs.RavenObs{}
	r := New(Config{TrainWindow: 1 << 40, ScoreCache: scoreCache, Inference32: f32, Obs: ro, Seed: 7})
	r.net = fitted.net
	fill(r, fitted.tr.Reqs[7000:])
	r.Victim()
	return r, ro
}

func fill(r *Raven, reqs []trace.Request) {
	c := cache.New(40, r)
	for _, req := range reqs {
		c.Handle(req)
	}
}

// TestEvictionPathAllocFree pins the eviction decision at zero
// allocations under both estimators and both inference widths: after
// one warmup call has grown every scratch buffer, frozen the weights
// and refreshed every resident embedding, Victim must not touch the
// heap. Under the score cache one resident is dirtied per decision by
// bumping its epoch directly (observe would touch the training-window
// reservoir, which is off the decision path and allowed to allocate),
// so every decision also predicts and stamps.
func TestEvictionPathAllocFree(t *testing.T) {
	if testing.Short() {
		t.Skip("training test skipped in -short mode")
	}
	for _, est := range estimators {
		for _, f32 := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/f32=%v", est.name, f32), func(t *testing.T) {
				r, ro := decidingRaven(t, est.scoreCache, f32)
				obj := r.tab.sides.At(r.tab.recs.At(r.tab.dense[3]).res)
				predicted := ro.ScoreRescores.Load()
				avg := testing.AllocsPerRun(200, func() {
					obj.epoch++
					if _, ok := r.Victim(); !ok {
						t.Fatal("no victim from a full cache")
					}
				})
				if avg != 0 {
					t.Errorf("eviction decision allocates %.1f times per op; want 0", avg)
				}
				if r.Health() != Healthy || ro.ScoreRescores.Load() == predicted {
					t.Fatalf("the model did not decide: health %v", r.Health())
				}
			})
		}
	}
}

// BenchmarkEvictDecision times one eviction decision under each
// estimator and inference width. The joint win count predicts every
// candidate every time. For the score cache the warm case (all
// candidates clean) is the steady state the <50µs p99 SLO targets; the
// all-dirty case bounds the worst decision after a model swap
// invalidates every cached score.
func BenchmarkEvictDecision(b *testing.B) {
	for _, est := range estimators {
		for _, width := range []string{"f64", "f32"} {
			cases := []string{""}
			if est.scoreCache {
				cases = []string{"/warm", "/alldirty"}
			}
			for _, c := range cases {
				b.Run(est.name+"/"+width+c, func(b *testing.B) {
					r, _ := decidingRaven(b, est.scoreCache, width == "f32")
					r.forceRescore = c == "/alldirty"
					r.Victim()
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						r.Victim()
					}
				})
			}
		}
	}
}

// BenchmarkObserve times the policy's per-request bookkeeping with no
// model installed — the path every request pays whatever then decides
// evictions — on a table at its ceiling (atCeiling), where records are
// recycled and nothing grows: B/op is 0 on all three.
//
//	hit      OnHit on a resident: one key lookup, ring push, LRU move
//	new-key  OnMiss on a never-seen key: insert, drop the oldest ghost
//	churn    kv_write_churn's mix: half hits; of the misses, two in
//	         five on a known ghost, the rest new keys that are admitted
//	         over an LRU victim
func BenchmarkObserve(b *testing.B) {
	const residents, floor = 30000, 10000
	b.Run("hit", func(b *testing.B) {
		r, resident, next := atCeiling(residents, floor)
		hit := func(i int) {
			next.Time++
			r.OnHit(cache.Request{Time: next.Time, Key: resident[i%residents], Size: 1})
		}
		for i := 0; i < residents; i++ {
			hit(i) // the second sighting allocates the ring
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			hit(i)
		}
	})
	b.Run("new-key", func(b *testing.B) {
		r, _, next := atCeiling(residents, floor)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			next.Time++
			next.Key++
			r.OnMiss(*next)
		}
	})
	b.Run("churn", func(b *testing.B) {
		r, _, next := atCeiling(residents, floor)
		g := stats.NewRNG(1)
		var evicted [1024]cache.Key // recent victims: known keys, not resident
		step := func(i int) {
			next.Time++
			switch p := g.Float64(); {
			case p < 0.5:
				key := r.tab.recs.At(r.tab.dense[g.Intn(residents)]).key
				r.OnHit(cache.Request{Time: next.Time, Key: key, Size: 1})
			case p < 0.7:
				r.OnMiss(cache.Request{Time: next.Time, Key: evicted[g.Intn(len(evicted))], Size: 1})
			default:
				next.Key++
				r.OnMiss(*next)
				victim, _ := r.Victim()
				r.OnEvict(victim)
				r.OnAdmit(*next)
				evicted[i%len(evicted)] = victim
			}
		}
		for i := 0; i < 40*residents; i++ {
			step(i) // a full turn of the age queue: dropped ghosts' rings are being reused
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			step(i)
		}
	})
}
