package server

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"raven/internal/cache"
	"raven/internal/core"
	"raven/internal/nn"
	"raven/internal/obs"
	"raven/internal/policy"
	"raven/internal/trace"
)

// engineEquivalenceOps is a fixed random stream over 300 keys, a third
// of it SETs, with explicit timestamps. Every key has a current size,
// which its GETs ask for. Half the SETs keep it (a refresh), the other
// half change it (the stale entry is evicted, the new one admitted).
// Keys from 280 up are larger than the whole cache, so they are never
// stored.
func engineEquivalenceOps(capacity int64) []Op {
	rng := rand.New(rand.NewSource(11))
	zipf := rand.NewZipf(rng, 1.1, 1, 299)
	size := make([]int64, 300)
	for k := range size {
		size[k] = 16 + rng.Int63n(240)
		if k >= 280 {
			size[k] = capacity + 1 + rng.Int63n(capacity)
		}
	}
	ops := make([]Op, 6000)
	for i := range ops {
		k := (zipf.Uint64()*37 + 11) % 300 // spread the popular ranks over small and big keys
		ops[i] = Op{Key: trace.Key(k), Size: size[k], Time: int64(i + 1)}
		if rng.Intn(3) == 0 {
			ops[i].Set = true
			if k < 280 && rng.Intn(2) == 0 {
				size[k] = 16 + rng.Int63n(240)
				ops[i].Size = size[k]
			}
		}
	}
	return ops
}

// TestEngineBurstEquivalence: serving a burst one shard lock per run of
// same-shard ops changes no reply. The same stream is served op by op through
// Sharded.Handle/Set and through engineBackend.ServeBatch in bursts of
// 1, 7 and 32, each time on a fresh engine with the server's metrics
// attached. Every run must give the same per-op results, the same final
// cache.Stats and the same METRICS cache.* values — at 1 and 4 shards,
// under LRU, Raven, and Raven behind learned admission.
func TestEngineBurstEquivalence(t *testing.T) {
	const capacity = 8 << 10
	ops := engineEquivalenceOps(capacity)
	type outcome struct {
		res     []bool
		stats   cache.Stats
		metrics []obs.KV // cache.*
	}
	for _, tc := range []struct {
		name   string
		policy string
		admit  string
	}{
		{"lru", "lru", ""}, {"raven", "raven", ""}, {"raven+learned", "raven", policy.AdmitLearned},
	} {
		for _, shards := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", tc.name, shards), func(t *testing.T) {
				f, err := policy.Lookup(tc.policy)
				if err != nil {
					t.Fatal(err)
				}
				newPolicy := f.PerShard(policy.Options{
					Capacity:    capacity,
					TrainWindow: int64(len(ops) / 6),
					Seed:        42,
					Admission:   policy.AdmissionOptions{Mode: tc.admit},
					Raven: &core.Config{
						MaxTrainObjects: 200,
						Net:             nn.Config{Hidden: 8, MLPHidden: 12, K: 4},
						Train:           nn.TrainConfig{MaxEpochs: 3, Patience: 2},
					},
				}, shards)
				run := func(burstLen int) outcome {
					eng, err := cache.NewSharded(capacity, shards, newPolicy)
					if err != nil {
						t.Fatal(err)
					}
					reg := obs.NewRegistry()
					registerCacheObs(eng, reg)
					out := outcome{res: make([]bool, len(ops))}
					for lo := 0; lo < len(ops); lo += max(burstLen, 1) {
						switch op := ops[lo]; {
						case burstLen > 0:
							hi := min(lo+burstLen, len(ops))
							engineBackend{eng}.ServeBatch(ops[lo:hi], out.res[lo:hi])
						case op.Set:
							out.res[lo] = eng.Set(trace.Request{Time: op.Time, Key: op.Key, Size: op.Size, Next: trace.NoNext})
						default:
							out.res[lo] = eng.Handle(trace.Request{Time: op.Time, Key: op.Key, Size: op.Size, Next: trace.NoNext})
						}
					}
					out.stats = eng.StatsSnapshot()
					for _, kv := range reg.Snapshot() {
						if strings.HasPrefix(kv.Name, "cache.") {
							out.metrics = append(out.metrics, kv)
						}
					}
					if tc.policy == "raven" {
						for i := 0; i < shards; i++ {
							if r, ok := cache.Unwrap(eng.ShardPolicy(i)).(*core.Raven); !ok || r.Net() == nil {
								t.Fatalf("degenerate replay: shard %d's Raven never fitted a model", i)
							}
						}
					}
					return out
				}

				want := run(0)
				if st := want.stats; st.Evictions == 0 || st.Rejections == 0 || st.Hits == 0 || st.Sets == 0 {
					t.Fatalf("degenerate replay: %+v", st)
				}
				for _, n := range []int{1, 7, 32} {
					got := run(n)
					for i := range ops {
						if got.res[i] != want.res[i] {
							t.Fatalf("bursts of %d: op %d (%+v) returned %v, op by op %v", n, i, ops[i], got.res[i], want.res[i])
						}
					}
					if got.stats != want.stats {
						t.Errorf("bursts of %d: stats %+v, op by op %+v", n, got.stats, want.stats)
					}
					if !reflect.DeepEqual(got.metrics, want.metrics) {
						t.Errorf("bursts of %d: METRICS\n got  %v\n want %v", n, got.metrics, want.metrics)
					}
				}
			})
		}
	}
}
