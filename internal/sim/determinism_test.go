package sim

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"reflect"
	"testing"

	"raven/internal/cache"
	"raven/internal/core"
	"raven/internal/nn"
	"raven/internal/obs"
	"raven/internal/policy"
	"raven/internal/trace"
)

// canonicalResult renders every deterministic field of a Result as a
// byte-exact string: float bits are formatted with %x so two runs must
// agree to the last ulp, not just to printed precision. Wall-clock
// fields (WallTime, EvictionNanos) are deliberately excluded.
func canonicalResult(r *Result) string {
	s := fmt.Sprintf("policy=%s trace=%s cap=%d stats=%+v ohr=%x bhr=%x nrank=%d",
		r.Policy, r.Trace, r.Capacity, r.Stats, r.OHR, r.BHR, len(r.RankErrors))
	for _, e := range r.RankErrors {
		s += fmt.Sprintf(" %x", e)
	}
	return s
}

// TestSimulateDeterministic is the repository's determinism regression
// test: the full replay, run twice on the same seeded synthetic trace,
// must produce byte-identical outputs (hit ratios, eviction counts,
// rank-order errors) for every registered policy, so a wall-clock read,
// a global rand draw or a map-order pick that reaches any policy's
// Victim shows as a diverged run. Each policy replays two traces:
// variable object sizes, and unit sizes, where equal scores are common
// and a nondeterministic tie-break would otherwise hide. A third run
// pins the seed-derivation half of the sharding contract: PerShard
// derives shard 0's seed as Seed+0, so factory.PerShard(o, 1) must
// replay bit-identically to policy.MustNew(name, o) behind
// SingleFactory — no hidden reseeding may leak in. A last row pins that
// Raven's counters never feed a decision: raven at 4 shards gives the
// same eviction order and cache.Stats whether each shard counts into a
// private metrics block (policy.Options.Obs unset) or all four share
// one.
func TestSimulateDeterministic(t *testing.T) {
	for _, name := range policy.Names() {
		t.Run(name, func(t *testing.T) {
			run := func(variableSizes, perShard bool) string {
				tr := trace.Synthetic(trace.SynthConfig{
					Objects: 200, Requests: 6000, Interarrival: trace.Pareto,
					VariableSizes: variableSizes, Seed: 11,
				})
				tr.AnnotateNext()
				capacity := tr.UniqueBytes() / 8
				popts := policy.Options{Capacity: capacity, TrainWindow: tr.Duration() / 4, Seed: 7}
				factory := cache.SingleFactory(policy.MustNew(name, popts))
				if perShard {
					f, err := policy.Lookup(name)
					if err != nil {
						t.Fatal(err)
					}
					factory = f.PerShard(popts, 1)
				}
				res, err := Run(tr, 1, factory, Options{Capacity: capacity, Seed: 3, RankOrderEvery: 50})
				if err != nil {
					t.Fatal(err)
				}
				return canonicalResult(res)
			}
			a := run(true, false)
			if b := run(true, false); a != b {
				t.Errorf("two identical runs diverged:\n run1: %s\n run2: %s", a, b)
			}
			if c := run(true, true); c != a {
				t.Errorf("PerShard(o, 1) diverged from MustNew behind SingleFactory:\n single:   %s\n perShard: %s", a, c)
			}
			if a, b := run(false, false), run(false, false); a != b {
				t.Errorf("two identical unit-size runs diverged:\n run1: %s\n run2: %s", a, b)
			}
		})
	}
	t.Run("raven-4shards-obs", func(t *testing.T) {
		run := func(ro *obs.RavenObs) string {
			tr := trace.Synthetic(trace.SynthConfig{
				Objects: 200, Requests: 6000, Interarrival: trace.Pareto, VariableSizes: true, Seed: 11,
			})
			capacity := tr.UniqueBytes() / 8
			f, err := policy.Lookup("raven")
			if err != nil {
				t.Fatal(err)
			}
			perShard := f.PerShard(policy.Options{Capacity: capacity, TrainWindow: tr.Duration() / 4, Seed: 7, Obs: ro}, 4)
			var logs []*evictLog
			res, err := Run(tr, 4, func(shard int, c int64) (cache.Policy, error) {
				p, err := perShard(shard, c)
				log := &evictLog{Policy: p}
				logs = append(logs, log)
				return log, err
			}, Options{Capacity: capacity, Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			s := fmt.Sprintf("stats=%+v", res.Stats)
			for i, log := range logs {
				if log.Policy.(*core.Raven).Net() == nil {
					t.Fatalf("shard %d never trained a model", i)
				}
				s += fmt.Sprintf(" shard%d=%v", i, log.order)
			}
			return s
		}
		private := run(nil)
		shared := new(obs.RavenObs)
		if got := run(shared); got != private {
			t.Errorf("a shared metrics block changed the replay (first 300 bytes):\n private: %.300s\n shared:  %.300s", private, got)
		}
		if shared.TrainEpochs.Load() == 0 || shared.HistoryResident.Load() == 0 {
			t.Errorf("the shared block counted nothing: epochs %d, residents %d", shared.TrainEpochs.Load(), shared.HistoryResident.Load())
		}
	})
}

// TestRavenWorkersBitExact replays a full Raven run twice, training
// windows included, under the joint win count and under the estimator
// the servers run (score cache, float32 inference): eviction order,
// cache.Stats, every training record and the trained weights must be
// byte-identical. Fits once fanned out over training workers and this
// test compared worker counts; a fit has one schedule now, and the
// test checks that the replay is a function of its seeds alone.
func TestRavenWorkersBitExact(t *testing.T) {
	if testing.Short() {
		t.Skip("training test skipped in -short mode")
	}
	for _, row := range []struct {
		name              string
		scoreCache, inf32 bool
	}{{"win-count", false, false}, {"score-cache-f32", true, true}} {
		t.Run(row.name, func(t *testing.T) {
			run := func() string {
				tr := trace.Synthetic(trace.SynthConfig{
					Objects: 150, Requests: 5000, Interarrival: trace.Pareto,
					VariableSizes: true, Seed: 17,
				})
				r := core.New(core.Config{
					TrainWindow:     tr.Duration() / 4,
					MaxTrainObjects: 400,
					Net:             nn.Config{Hidden: 8, MLPHidden: 12, K: 4},
					Train:           nn.TrainConfig{MaxEpochs: 4, Patience: 2},
					ScoreCache:      row.scoreCache,
					Inference32:     row.inf32,
					Seed:            5,
				})
				c := cache.New(tr.UniqueBytes()/8, r)
				s := ""
				c.SetEvictionObserver(func(v cache.Key, _ func([]cache.Key) []cache.Key) { s += fmt.Sprintf(" %d", v) })
				for _, req := range tr.Reqs {
					c.Handle(req)
				}
				s += fmt.Sprintf(" stats=%+v", c.StatsSnapshot())
				for _, rec := range r.TrainStats {
					s += fmt.Sprintf(" train(%d,%d,%d,%t,%d,%x,%x,%d,%d)",
						rec.WindowEnd, rec.Objects, rec.Samples, rec.Skipped,
						rec.Result.Epochs, rec.Result.TrainNLL, rec.Result.ValNLL,
						rec.Result.Sequences, rec.Result.Terms)
				}
				n := r.Net()
				if n == nil {
					t.Fatal("raven never trained a model")
				}
				var buf bytes.Buffer
				if err := n.Checkpoint(&buf); err != nil {
					t.Fatalf("save net: %v", err)
				}
				return s + fmt.Sprintf(" net=%x", buf.Bytes())
			}
			if a, b := run(), run(); a != b {
				t.Errorf("two identical runs diverged (first 300 bytes):\n run1: %.300s\n run2: %.300s", a, b)
			}
		})
	}
}

// TestTraceGeneratorsDeterministic requires every seeded trace
// generator to reproduce the exact same request sequence on a second
// call — the precondition for everything TestSimulateDeterministic
// checks.
func TestTraceGeneratorsDeterministic(t *testing.T) {
	gens := map[string]func() *trace.Trace{
		"synthetic": func() *trace.Trace {
			return trace.Synthetic(trace.SynthConfig{
				Objects: 120, Requests: 6000, Interarrival: trace.Pareto,
				VariableSizes: true, Seed: 21,
			})
		},
		"synthetic-poisson": func() *trace.Trace {
			return trace.Synthetic(trace.SynthConfig{
				Objects: 120, Requests: 6000, Interarrival: trace.Poisson, Seed: 22,
			})
		},
		"production": func() *trace.Trace {
			return trace.ProductionTrace(trace.AllProductionPresets[0], 0.05, 23)
		},
	}
	for name, gen := range gens {
		name, gen := name, gen
		t.Run(name, func(t *testing.T) {
			a, b := gen(), gen()
			if len(a.Reqs) == 0 {
				t.Fatal("generator produced an empty trace")
			}
			if !reflect.DeepEqual(a.Reqs, b.Reqs) {
				for i := range a.Reqs {
					if a.Reqs[i] != b.Reqs[i] {
						t.Fatalf("request %d differs: %+v vs %+v", i, a.Reqs[i], b.Reqs[i])
					}
				}
				t.Fatal("traces differ")
			}
		})
	}
}

// ravenGoldenSHA is the SHA-256 of the eviction order, final stats and
// trained weights (Version, then each tensor's name and weight bits,
// not Checkpoint's bytes, which carry gob's description of nn.Config)
// of TestRavenGoldenBytes' replay, computed on the code that still had
// four recurrent cells behind an interface. It is the core-level twin
// of nn's TestFitGoldenBytes: the epoch budget is explicit, so a change
// to core.Config's default does not reach it, while any change to what
// a fit computes does.
const ravenGoldenSHA = "2f8a01ca7079a077a7121879a920a3e0eeedebe975cc9129b6ff469c6179fecf"

// evictLog records the eviction order a policy is told about.
type evictLog struct {
	cache.Policy
	order []cache.Key
}

func (e *evictLog) OnEvict(k cache.Key) {
	e.order = append(e.order, k)
	e.Policy.OnEvict(k)
}

func TestRavenGoldenBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("training test skipped in -short mode")
	}
	tr := trace.Synthetic(trace.SynthConfig{
		Objects: 150, Requests: 5000, Interarrival: trace.Pareto,
		VariableSizes: true, Seed: 17,
	})
	capacity := tr.UniqueBytes() / 8
	log := &evictLog{Policy: policy.MustNew("raven", policy.Options{
		Capacity: capacity, TrainWindow: tr.Duration() / 4, Seed: 5,
		Raven: &core.Config{
			MaxTrainObjects: 400,
			Net:             nn.Config{Hidden: 8, MLPHidden: 12, K: 4},
			Train:           nn.TrainConfig{MaxEpochs: 30, Patience: 5},
		},
	})}
	res, err := Run(tr, 1, cache.SingleFactory(log), Options{Capacity: capacity, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	n := log.Policy.(*core.Raven).Net()
	if n == nil {
		t.Fatal("raven never trained a model")
	}
	h := sha256.New()
	fmt.Fprintf(h, "%v stats=%+v net=v%d", log.order, res.Stats, n.Version)
	for _, p := range n.Params() {
		fmt.Fprintf(h, " %s", p.Name)
		for _, w := range p.W {
			fmt.Fprintf(h, " %x", math.Float64bits(w))
		}
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != ravenGoldenSHA {
		t.Errorf("replay hash %s, want %s", got, ravenGoldenSHA)
	}
}
