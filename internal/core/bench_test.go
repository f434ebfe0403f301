package core

import (
	"fmt"
	"testing"

	"raven/internal/cache"
	"raven/internal/nn"
	"raven/internal/stats"
	"raven/internal/trace"
)

// trainedRaven builds a Raven that has completed at least one training
// window and holds a full cache, ready for eviction benchmarks.
func trainedRaven(tb testing.TB, workers int) *Raven {
	tb.Helper()
	tr := trace.Synthetic(trace.SynthConfig{
		Objects: 200, Requests: 30000, Interarrival: trace.Poisson, Seed: 5,
	})
	r := New(Config{
		TrainWindow:     tr.Duration() / 4,
		MaxTrainObjects: 300,
		Net:             nn.Config{Hidden: 8, MLPHidden: 12, K: 4},
		Train:           nn.TrainConfig{MaxEpochs: 5, Patience: 2},
		Workers:         workers,
		Seed:            7,
	})
	c := cache.New(40, r) // 40 unit-size objects
	for _, req := range tr.Reqs {
		c.Handle(req)
	}
	if r.Net() == nil {
		tb.Fatal("raven never trained a model")
	}
	return r
}

// TestEvictionPathAllocFree pins the eviction hot path at zero
// allocations per decision for every worker count: after one warmup
// call has grown every scratch buffer, refreshed every resident
// embedding, and spawned the pool's parked workers, Victim must not
// touch the heap. Workers>1 used to leak 2(w-1)+1 allocs per pool
// dispatch through per-call goroutine closures; the persistent-worker
// pool (nn/pool.go) eliminates them, and this sweep keeps it that way.
//
// The model is fitted once, on one window of a short trace, and shared:
// training is bit-exact across Workers, so every entry of the sweep
// would fit this same net. Each entry decides with it at its own
// fan-out, over a cache filled by the trace's tail.
func TestEvictionPathAllocFree(t *testing.T) {
	if testing.Short() {
		t.Skip("training test skipped in -short mode")
	}
	tr := trace.Synthetic(trace.SynthConfig{
		Objects: 200, Requests: 8000, Interarrival: trace.Poisson, Seed: 5,
	})
	fill := func(r *Raven, reqs []trace.Request) {
		c := cache.New(40, r) // 40 unit-size objects
		for _, req := range reqs {
			c.Handle(req)
		}
	}
	fitted := New(Config{
		TrainWindow:     tr.Duration()/2 + 1,
		MaxTrainObjects: 300,
		Net:             nn.Config{Hidden: 8, MLPHidden: 12, K: 4},
		Train:           nn.TrainConfig{MaxEpochs: 5, Patience: 2},
		Seed:            7,
	})
	fill(fitted, tr.Reqs)
	if fitted.Net() == nil {
		t.Fatal("raven never trained a model")
	}
	for _, w := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			r := New(Config{TrainWindow: 1 << 40, Workers: w, Seed: 7})
			r.net = fitted.net
			fill(r, tr.Reqs[7000:])
			r.Victim() // grow scratch, embed all residents, spawn workers
			avg := testing.AllocsPerRun(200, func() {
				if _, ok := r.Victim(); !ok {
					t.Fatal("no victim from a full cache")
				}
			})
			if avg != 0 {
				t.Errorf("Workers=%d: eviction decision allocates %.1f times per op; want 0", w, avg)
			}
			if r.health != Healthy || r.infNets == nil {
				t.Fatalf("the model did not decide: health %v", r.health)
			}
		})
	}
}

func BenchmarkEvictDecision(b *testing.B) {
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			r := trainedRaven(b, w)
			r.Victim() // warmup: grow scratch outside the timed region
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Victim()
			}
		})
	}
}

// BenchmarkEvictDecisionFast times the ScoreCache fast path. The
// warm-cache case (all candidates clean) is the steady state the <50µs
// p99 SLO targets; the all-dirty case bounds the worst decision after
// a model swap invalidates every cached score.
func BenchmarkEvictDecisionFast(b *testing.B) {
	for _, mode := range []struct {
		name string
		f32  bool
	}{{"f64", false}, {"f32", true}} {
		b.Run(mode.name+"/warm", func(b *testing.B) {
			h := newFastHarness(func(c *Config) { c.Inference32 = mode.f32 })
			h.r.Victim() // score + cache every resident
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.r.Victim()
			}
		})
		b.Run(mode.name+"/alldirty", func(b *testing.B) {
			h := newFastHarness(func(c *Config) { c.Inference32 = mode.f32 })
			h.r.forceRescore = true
			h.r.Victim()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.r.Victim()
			}
		})
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
				key := r.tab.recs.at(r.tab.dense[g.Intn(residents)]).key
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
