package server

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"raven/internal/cache"
	"raven/internal/policy"
	"raven/internal/stats"
	"raven/internal/trace"
)

// newShardedTestServer starts a server with n shards, one independent
// LRU per shard.
func newShardedTestServer(t *testing.T, capacity int64, n int) *Server {
	t.Helper()
	f, err := policy.Lookup("lru")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{
		Capacity:  capacity,
		Shards:    n,
		NewPolicy: f.PerShard(policy.Options{Capacity: capacity}, n),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

func TestShardedConfigValidation(t *testing.T) {
	f, _ := policy.Lookup("lru")
	opts := policy.Options{Capacity: 1024}
	// Shards > 1 with a single pre-built policy must be refused: one
	// instance cannot live under several shard locks.
	if _, err := New(Config{
		Capacity:  1024,
		Shards:    4,
		NewPolicy: cache.SingleFactory(policy.MustNew("lru", opts)),
	}); err == nil {
		t.Error("Shards>1 with a single policy instance should fail")
	}
	if _, err := New(Config{Capacity: 1024, Shards: -3, NewPolicy: f.PerShard(opts, 1)}); err == nil {
		t.Error("negative Shards should fail, not be served as 1 shard")
	}
	srv, err := New(Config{Capacity: 1024, Shards: 5, NewPolicy: f.PerShard(opts, 5)})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.Shards() != 8 {
		t.Errorf("5 shards should round up to 8, got %d", srv.Shards())
	}
}

// TestSetCommand exercises the SET protocol verb end to end: store,
// hit on a following GET, refuse an oversized store.
func TestSetCommand(t *testing.T) {
	srv := newShardedTestServer(t, 1024, 2)
	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.Timeout = 5 * time.Second

	stored, err := cl.Set(7, 64, 1)
	if err != nil || !stored {
		t.Fatalf("Set = %v, %v; want stored", stored, err)
	}
	hit, err := cl.Get(7, 64, 2)
	if err != nil || !hit {
		t.Fatalf("Get after Set = %v, %v; want hit", hit, err)
	}
	stored, err = cl.Set(8, 4096, 3) // larger than total capacity
	if err != nil || stored {
		t.Fatalf("oversized Set = %v, %v; want refused", stored, err)
	}
	st := srv.Stats()
	if st.Sets != 2 || st.Requests != 1 || st.Hits != 1 {
		t.Errorf("stats %+v, want 2 sets / 1 request / 1 hit", st)
	}
}

// TestShardedStress is the cross-shard race acceptance test: 100
// concurrent clients issuing mixed GET/SET traffic against an 8-shard
// server, reconciling METRICS totals (merged and per-shard) with
// client-side counts. Under -race this proves GET/SET on different
// shards can interleave freely without a global cache lock.
func TestShardedStress(t *testing.T) {
	const (
		clients     = 100
		reqsPerConn = 40
		shards      = 8
	)
	srv := newShardedTestServer(t, 200_000, shards)

	var (
		gets, hits   atomic.Int64
		sets, stores atomic.Int64
		wg           sync.WaitGroup
		errOnce      sync.Once
		firstErr     atomic.Value
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := dialRetry(srv.Addr(), 10*time.Second, 8, 5*time.Millisecond)
			if err != nil {
				errOnce.Do(func() { firstErr.Store(err) })
				return
			}
			defer cl.Close()
			g := stats.NewRNG(int64(c + 1))
			for i := 0; i < reqsPerConn; i++ {
				key := trace.Key(g.Intn(2048))
				size := int64(8 + int(key)%64)
				ts := int64(c*reqsPerConn + i + 1)
				if g.Float64() < 0.3 {
					stored, err := cl.do(Op{Set: true, Key: key, Size: size, Time: ts})
					if err != nil {
						errOnce.Do(func() { firstErr.Store(err) })
						return
					}
					sets.Add(1)
					if stored {
						stores.Add(1)
					}
				} else {
					hit, err := cl.do(Op{Key: key, Size: size, Time: ts})
					if err != nil {
						errOnce.Do(func() { firstErr.Store(err) })
						return
					}
					gets.Add(1)
					if hit {
						hits.Add(1)
					}
				}
			}
		}(c)
	}
	wg.Wait()
	if err := firstErr.Load(); err != nil {
		t.Fatalf("client failed: %v", err)
	}
	if total := gets.Load() + sets.Load(); total != clients*reqsPerConn {
		t.Fatalf("completed %d requests, want %d", total, clients*reqsPerConn)
	}

	m, err := FetchMetrics(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}

	// Merged totals reconcile exactly with client-side counts.
	if m["cache.requests"] != gets.Load() {
		t.Errorf("cache.requests = %d, clients completed %d GETs", m["cache.requests"], gets.Load())
	}
	if m["cache.hits"] != hits.Load() {
		t.Errorf("cache.hits = %d, clients saw %d", m["cache.hits"], hits.Load())
	}
	if m["cache.sets"] != sets.Load() {
		t.Errorf("cache.sets = %d, clients completed %d SETs", m["cache.sets"], sets.Load())
	}
	if m["server.get_latency_ns.count"] != gets.Load() ||
		m["server.set_latency_ns.count"] != sets.Load() {
		t.Errorf("latency histogram counts (%d get, %d set) do not match clients (%d, %d)",
			m["server.get_latency_ns.count"], m["server.set_latency_ns.count"],
			gets.Load(), sets.Load())
	}

	// Per-shard counters are present, spread over several shards, and
	// sum to the merged totals.
	var shardReqs, shardSets, shardHits int64
	active := 0
	for name, v := range m {
		if !strings.HasPrefix(name, "cache.shard") {
			continue
		}
		switch {
		case strings.HasSuffix(name, ".requests"):
			shardReqs += v
			if v > 0 {
				active++
			}
		case strings.HasSuffix(name, ".sets"):
			shardSets += v
		case strings.HasSuffix(name, ".hits"):
			shardHits += v
		}
	}
	if shardReqs != m["cache.requests"] || shardSets != m["cache.sets"] || shardHits != m["cache.hits"] {
		t.Errorf("per-shard sums (%d req, %d sets, %d hits) != merged (%d, %d, %d)",
			shardReqs, shardSets, shardHits,
			m["cache.requests"], m["cache.sets"], m["cache.hits"])
	}
	if active < shards/2 {
		t.Errorf("traffic reached only %d of %d shards", active, shards)
	}

	// Server.Stats agrees with the wire metrics.
	st := srv.Stats()
	if st.Requests != m["cache.requests"] || st.Sets != m["cache.sets"] || st.Hits != m["cache.hits"] {
		t.Errorf("Stats() %+v does not reconcile with METRICS %v", st, m)
	}
}
