package policy

import (
	"fmt"
	"slices"
	"testing"

	"raven/internal/cache"
	"raven/internal/core"
	"raven/internal/nn"
	"raven/internal/obs"
	"raven/internal/stats"
	"raven/internal/trace"
)

// engine is what the accounting invariants are stated over; cache.Cache
// and cache.Sharded both offer it.
type engine interface {
	Handle(cache.Request) bool
	Set(cache.Request) bool
	Used() int64
	Capacity() int64
	Keys([]cache.Key) []cache.Key
	StatsSnapshot() cache.Stats
	SetEvictionObserver(func(cache.Key))
}

// recorder keeps the resident set as the policy is told about it:
// entered on OnAdmit here, left in the engine's eviction observer. It
// forwards the optional faces the engine looks for.
type recorder struct {
	cache.Policy
	resident map[cache.Key]int64
}

func (r *recorder) OnAdmit(req cache.Request) {
	r.resident[req.Key] = req.Size
	r.Policy.OnAdmit(req)
}

func (r *recorder) Admit(req cache.Request) cache.Decision { return cache.PolicyAdmit(r.Policy, req) }

func (r *recorder) NextPrefetch(now int64) (cache.Request, bool) {
	if pf, ok := r.Policy.(cache.Prefetcher); ok {
		return pf.NextPrefetch(now)
	}
	return cache.Request{}, false
}

// TestAccountingInvariants drives every registered policy — plain, and
// behind the admission front — through both engines with a seeded
// random mix of lookups and stores, and checks after every step the
// accounting identities that the metrics, the benchmark's
// reconciliation gate and the operators' dashboards rely on:
//
//   - every lookup and every storing SET ends as exactly one of hit,
//     admission, rejection;
//   - the per-reason reject counters sum to the rejections;
//   - every prefetch insert is a prefetch hit, a wasted prefetch, or
//     still resident and unused;
//   - 0 <= used == the resident objects' bytes <= capacity;
//   - the engine's resident set is the one the policy was told about
//     (OnAdmit in, eviction observer out).
func TestAccountingInvariants(t *testing.T) {
	tr := trace.Synthetic(trace.SynthConfig{
		Objects: 120, Requests: 2400, Interarrival: trace.Pareto, VariableSizes: true, Seed: 3,
	})
	tr.AnnotateNext() // the Belady variants read Request.Next
	capacity := tr.UniqueBytes() / 6
	prefetches, policyRejects := int64(0), int64(0)
	for _, name := range Names() {
		raven := name == "raven" || name == "raven-ohr"
		for _, mode := range []string{AdmitOff, AdmitDoorkeeper} {
			o := Options{
				Capacity:    capacity,
				TrainWindow: tr.Duration() / 5,
				Seed:        9,
				Admission:   AdmissionOptions{Mode: mode},
			}
			if raven {
				// A short window, a small net and the prefetch queue armed;
				// behind the front, the learned pipeline.
				o.Prefetch = PrefetchOptions{Horizon: tr.Duration() / 8}
				o.Raven = &core.Config{
					MaxTrainObjects: 120,
					Net:             nn.Config{Hidden: 4, MLPHidden: 6, K: 2},
					Train:           nn.TrainConfig{MaxEpochs: 2, Patience: 1},
				}
				if mode == AdmitDoorkeeper {
					o.Admission.Mode = AdmitLearned
				}
			}
			factory, err := Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, shards := range []int{0, 4} { // 0: a plain cache.Cache
				t.Run(fmt.Sprintf("%s/admit=%s/shards=%d", name, o.Admission.Mode, shards), func(t *testing.T) {
					resident := map[cache.Key]int64{}
					var eng engine
					var cobs []*obs.CacheObs
					if shards == 0 {
						p, err := factory(o)
						if err != nil {
							t.Fatal(err)
						}
						c := cache.New(capacity, &recorder{p, resident})
						cobs = []*obs.CacheObs{{}}
						c.SetObs(cobs[0])
						eng = c
					} else {
						perShard := factory.PerShard(o, shards)
						s, err := cache.NewSharded(capacity, shards, func(i int, c int64) (cache.Policy, error) {
							p, err := perShard(i, c)
							return &recorder{p, resident}, err
						})
						if err != nil {
							t.Fatal(err)
						}
						for i := 0; i < s.Shards(); i++ {
							cobs = append(cobs, &obs.CacheObs{})
							s.SetShardObs(i, cobs[i])
						}
						eng = s
					}
					eng.SetEvictionObserver(func(k cache.Key) { delete(resident, k) })

					g := stats.NewRNG(21)
					var fills int64 // SETs that had to store: not a same-size refresh
					var keys, want []cache.Key
					for step, req := range tr.Reqs {
						if g.Intn(5) == 0 {
							if g.Intn(2) == 0 {
								req.Size += 1 + int64(g.Intn(9)) // a SET may change the size
							}
							if size, ok := resident[req.Key]; !ok || size != req.Size {
								fills++
							}
							eng.Set(req)
						} else {
							eng.Handle(req)
						}

						st := eng.StatsSnapshot()
						if st.Hits+st.Admissions+st.Rejections != st.Requests+fills {
							t.Fatalf("step %d: hits %d + admissions %d + rejections %d != requests %d + storing sets %d",
								step, st.Hits, st.Admissions, st.Rejections, st.Requests, fills)
						}
						var rejects, byReason, prefetched int64
						for _, co := range cobs {
							rejects += co.Rejections.Load()
							byReason += co.RejTooLarge.Load() + co.RejNoVictim.Load() + co.RejPolicy.Load() +
								co.RejSizeThreshold.Load() + co.RejDoorkeeper.Load() + co.RejFrequency.Load() +
								co.RejReuse.Load() + co.RejOther.Load()
							prefetched += co.PrefetchResident.Load()
						}
						if byReason != st.Rejections || rejects != st.Rejections {
							t.Fatalf("step %d: per-reason rejects sum to %d, counter %d, stats %d", step, byReason, rejects, st.Rejections)
						}
						if st.Prefetches != st.PrefetchHits+st.PrefetchWasted+prefetched {
							t.Fatalf("step %d: prefetches %d != hits %d + wasted %d + resident %d",
								step, st.Prefetches, st.PrefetchHits, st.PrefetchWasted, prefetched)
						}
						var bytes int64
						want = want[:0]
						for k, size := range resident {
							bytes += size
							want = append(want, k)
						}
						if used := eng.Used(); used != bytes || used < 0 || used > eng.Capacity() {
							t.Fatalf("step %d: used %d, resident bytes %d, capacity %d", step, used, bytes, eng.Capacity())
						}
						slices.Sort(want)
						if keys = eng.Keys(keys[:0]); !slices.Equal(keys, want) {
							t.Fatalf("step %d: engine holds %v, the policy was told %v", step, keys, want)
						}
					}
					st := eng.StatsSnapshot()
					prefetches += st.Prefetches
					for _, co := range cobs {
						policyRejects += co.RejPolicy.Load()
					}
					if st.Evictions == 0 {
						t.Errorf("no evictions: the fixture does not press %s", name)
					}
				})
			}
		}
	}
	// The identities above are vacuous for a path the fixture never takes.
	if prefetches == 0 {
		t.Error("no policy prefetched: the prefetch identity was never exercised")
	}
	if policyRejects == 0 {
		t.Error("no policy-reason rejects: the ported admitters were never exercised")
	}
}
