package server

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
	"time"

	"raven/internal/cache"
	"raven/internal/core"
	"raven/internal/policy"
	"raven/internal/sim"
	"raven/internal/trace"
)

// TestServedEqualsSimulated: what is served is what was simulated. A
// production-like trace is replayed as timestamped GETs through a real
// listener over the binary protocol, and the per-request HIT/MISS
// sequence must equal a direct cache.Sharded.Handle replay — the engine
// sim.Run drives — request for request, and the server's final
// cache.Stats must equal sim.Run's, field for field. Each shard evicts
// the same keys in the same order in all three, and on the Raven rows
// each shard's final model checkpoints to the same bytes. LRU runs at 1 and 4
// shards, at depth 1 and pipelined 32 deep; Raven at raven-sim's
// defaults (no score cache, no decision budget, so no wall clock
// reaches a decision) pipelined 32 deep on 1 and 4 shards, where the
// engine serves each burst as runs of same-shard ops and must keep
// every shard's op order. The served preset, policy.Served(), runs at 1
// shard depth 1 and at 1 and 4 shards pipelined 32 deep.
func TestServedEqualsSimulated(t *testing.T) {
	tr := trace.ProductionTrace(trace.Wiki18, 0.02, 42)
	capacity := max(int64(float64(tr.UniqueBytes())*0.02), 64)
	// The served rows are policy.Served() (score cache, float32
	// inference, learned admission) with DecisionBudget 0: a wall-clock
	// budget decides by how long a decision took, so two replays of it
	// differ.
	served := policy.Served()
	served.DecisionBudget = 0
	plain := policy.Options{Seed: 42}
	for _, tc := range []struct {
		name, policy  string
		opts          policy.Options
		shards, depth int
	}{
		{"lru", "lru", plain, 1, 1}, {"lru", "lru", plain, 1, 32}, {"lru", "lru", plain, 4, 1}, {"lru", "lru", plain, 4, 32},
		{"raven", "raven", plain, 1, 32}, {"raven", "raven", plain, 4, 32},
		{"served", "raven", served, 1, 1}, {"served", "raven", served, 1, 32}, {"served", "raven", served, 4, 32},
	} {
		t.Run(fmt.Sprintf("%s/shards=%d/depth=%d", tc.name, tc.shards, tc.depth), func(t *testing.T) {
			f, err := policy.Lookup(tc.policy)
			if err != nil {
				t.Fatal(err)
			}
			o := tc.opts
			o.Capacity, o.TrainWindow = capacity, tr.Duration()/8
			// Each call builds a fresh instance, so the three engines share
			// no policy state.
			newPolicy := f.PerShard(o, tc.shards)
			simPolicy, simShards := recorded(newPolicy, tc.shards)
			directPolicy, directShards := recorded(newPolicy, tc.shards)
			srvPolicy, srvShards := recorded(newPolicy, tc.shards)

			simRes, err := sim.Run(tr, tc.shards, simPolicy, sim.Options{Capacity: capacity})
			if err != nil {
				t.Fatal(err)
			}
			if simRes.Stats.Evictions == 0 {
				t.Fatalf("degenerate replay: no eviction in %+v", simRes.Stats)
			}
			if r, ok := cache.Unwrap(simRes.Policies[0]).(*core.Raven); ok && r.Net() == nil {
				t.Fatal("degenerate replay: Raven never fitted a model, so LRU decided every eviction")
			}
			if tc.opts.Admission.Mode != "" && simRes.Stats.Rejections == 0 {
				t.Fatalf("degenerate replay: admission refused nothing in %+v", simRes.Stats)
			}
			direct, err := cache.NewSharded(capacity, tc.shards, directPolicy)
			if err != nil {
				t.Fatal(err)
			}
			want := make([]bool, tr.Len())
			for i, req := range tr.Reqs {
				want[i] = direct.Handle(req)
			}

			srv, err := New(Config{Capacity: capacity, Shards: tc.shards, NewPolicy: srvPolicy, DrainTimeout: time.Second})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = srv.Close() })
			cl := dialClient(t, srv)
			cl.Timeout = time.Minute // a Raven fit runs inside a request
			ops := make([]Op, tr.Len())
			for i, req := range tr.Reqs {
				ops[i] = Op{Key: req.Key, Size: req.Size, Time: req.Time}
			}
			got := make([]bool, len(ops))
			for lo := 0; lo < len(ops); lo += tc.depth {
				hi := min(lo+tc.depth, len(ops))
				if err := cl.Send(ops[lo:hi]); err != nil {
					t.Fatal(err)
				}
				if _, err := cl.Recv(ops[lo:hi], got[lo:hi]); err != nil {
					t.Fatal(err)
				}
			}

			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("request %d (%+v) served hit=%v, simulated hit=%v", i, tr.Reqs[i], got[i], want[i])
				}
			}
			if st := srv.Stats(); st != simRes.Stats {
				t.Errorf("served stats %+v, simulated %+v", st, simRes.Stats)
			}
			if st := direct.StatsSnapshot(); st != simRes.Stats {
				t.Errorf("direct replay stats %+v, sim.Run %+v", st, simRes.Stats)
			}

			// Closing the client, then the server, ends every handler, so
			// the served policies are read after their last request.
			_ = cl.Close()
			_ = srv.Close()
			for sh := range tc.shards {
				want := simShards[sh]
				if len(want.evicted) == 0 {
					t.Fatalf("degenerate replay: shard %d evicted nothing", sh)
				}
				for engine, got := range map[string]*evictionRecorder{"served": srvShards[sh], "direct": directShards[sh]} {
					if !slices.Equal(got.evicted, want.evicted) {
						t.Errorf("shard %d: %s evicted %d keys, sim.Run %d, first difference at %d",
							sh, engine, len(got.evicted), len(want.evicted), firstDiff(got.evicted, want.evicted))
					}
					if tc.policy == "raven" && !bytes.Equal(checkpoint(t, got), checkpoint(t, want)) {
						t.Errorf("shard %d: %s model's checkpoint differs from sim.Run's", sh, engine)
					}
				}
			}
		})
	}
}

// evictionRecorder records the keys its policy evicts, in order. It
// forwards Admit and Unwrap as sim's timed wrapper does, so admission
// and the engine's view of the policy are unchanged.
type evictionRecorder struct {
	cache.Policy
	evicted []cache.Key
}

func (r *evictionRecorder) OnEvict(key cache.Key) {
	r.evicted = append(r.evicted, key)
	r.Policy.OnEvict(key)
}

func (r *evictionRecorder) Admit(req cache.Request) cache.Decision {
	return cache.PolicyAdmit(r.Policy, req)
}

func (r *evictionRecorder) Unwrap() cache.Policy { return r.Policy }

// recorded wraps each policy f builds in an evictionRecorder, kept at
// its shard's index.
func recorded(f cache.ShardFactory, shards int) (cache.ShardFactory, []*evictionRecorder) {
	rec := make([]*evictionRecorder, shards)
	return func(shard int, capacity int64) (cache.Policy, error) {
		p, err := f(shard, capacity)
		if err != nil {
			return nil, err
		}
		rec[shard] = &evictionRecorder{Policy: p}
		return rec[shard], nil
	}, rec
}

// checkpoint returns the bytes r's Raven checkpoints its model to.
func checkpoint(t *testing.T, r *evictionRecorder) []byte {
	t.Helper()
	rv, ok := cache.Unwrap(r).(*core.Raven)
	if !ok || rv.Net() == nil {
		t.Fatalf("no fitted Raven behind %T", r.Policy)
	}
	var buf bytes.Buffer
	if err := rv.Net().Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// firstDiff returns the first index at which a and b differ.
func firstDiff(a, b []cache.Key) int {
	i := 0
	for i < min(len(a), len(b)) && a[i] == b[i] {
		i++
	}
	return i
}
