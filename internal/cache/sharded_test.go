package cache

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"raven/internal/obs"
	"raven/internal/stats"
)

func newTestSharded(t *testing.T, capacity int64, shards int) *Sharded {
	t.Helper()
	s, err := NewSharded(capacity, shards, func(shard int, capacity int64) (Policy, error) {
		return newTestLRU(), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestShardedConstruction(t *testing.T) {
	s := newTestSharded(t, 103, 3) // rounds up to 4 shards
	if s.Shards() != 4 {
		t.Fatalf("shards = %d, want 4 (rounded up)", s.Shards())
	}
	var sum int64
	for i := 0; i < s.Shards(); i++ {
		sum += s.ShardCapacity(i)
	}
	if sum != 103 {
		t.Errorf("shard capacities sum to %d, want 103", sum)
	}
	// 103 = 4*25 + 3: the low three shards get the remainder byte.
	want := []int64{26, 26, 26, 25}
	for i, w := range want {
		if got := s.ShardCapacity(i); got != w {
			t.Errorf("shard %d capacity %d, want %d", i, got, w)
		}
	}

	for _, tc := range []struct {
		capacity int64
		shards   int
	}{{0, 1}, {10, 0}, {2, 4}} {
		if _, err := NewSharded(tc.capacity, tc.shards, func(int, int64) (Policy, error) {
			return newTestLRU(), nil
		}); err == nil {
			t.Errorf("NewSharded(%d, %d) should fail", tc.capacity, tc.shards)
		}
	}
	if _, err := NewSharded(10, 1, nil); err == nil {
		t.Error("nil factory should fail")
	}
	if _, err := NewSharded(10, 2, func(int, int64) (Policy, error) {
		return nil, fmt.Errorf("boom")
	}); err == nil {
		t.Error("factory error should propagate")
	}
}

// TestShardIndexDeterministic: the key→shard mapping is a pure
// function of key and shard count, stable across instances, and every
// shard is reachable.
func TestShardIndexDeterministic(t *testing.T) {
	a := newTestSharded(t, 1024, 8)
	b := newTestSharded(t, 4096, 8)
	seen := make(map[int]bool)
	for k := Key(0); k < 1000; k++ {
		ia, ib := a.ShardIndex(k), b.ShardIndex(k)
		if ia != ib {
			t.Fatalf("key %d maps to shard %d and %d across instances", k, ia, ib)
		}
		if ia < 0 || ia >= 8 {
			t.Fatalf("key %d maps out of range: %d", k, ia)
		}
		seen[ia] = true
	}
	if len(seen) != 8 {
		t.Errorf("only %d of 8 shards reachable over 1000 keys", len(seen))
	}
}

// TestShardedShardLocality: every object lands on exactly the shard
// its key hashes to, and per-shard stats sum to the merged snapshot.
func TestShardedShardLocality(t *testing.T) {
	s := newTestSharded(t, 4096, 4)
	for k := Key(0); k < 200; k++ {
		s.Handle(Request{Time: int64(k), Key: k, Size: 4})
	}
	for k := Key(0); k < 200; k++ {
		s.Handle(Request{Time: 200 + int64(k), Key: k, Size: 4})
	}
	var sum Stats
	for i := 0; i < s.Shards(); i++ {
		sum.Add(s.ShardStats(i))
	}
	if total := s.StatsSnapshot(); sum != total {
		t.Errorf("per-shard stats %+v do not sum to snapshot %+v", sum, total)
	}
	if total := s.StatsSnapshot(); total.Requests != 400 || total.Hits != 200 {
		t.Errorf("stats %+v, want 400 requests / 200 hits", total)
	}
	if s.Used() != 800 || s.Len() != 200 {
		t.Errorf("occupancy %dB/%d objects, want 800/200", s.Used(), s.Len())
	}
}

// TestShardedSetSemantics: Set stores, refreshes, and replaces on size
// change, on whichever shard the key hashes to.
func TestShardedSetSemantics(t *testing.T) {
	s := newTestSharded(t, 64, 2)
	if !s.Set(Request{Time: 1, Key: 9, Size: 8}) {
		t.Fatal("fresh Set should store")
	}
	if !s.Contains(9) {
		t.Fatal("object missing after Set")
	}
	if !s.Handle(Request{Time: 2, Key: 9, Size: 8}) {
		t.Error("lookup after Set should hit")
	}
	// Same-size refresh keeps the object without a second admission.
	if !s.Set(Request{Time: 3, Key: 9, Size: 8}) {
		t.Error("refresh Set should report resident")
	}
	// Size change replaces: one eviction, one new admission.
	if !s.Set(Request{Time: 4, Key: 9, Size: 16}) {
		t.Error("resize Set should store")
	}
	st := s.StatsSnapshot()
	if st.Sets != 3 || st.Admissions != 2 || st.Evictions != 1 {
		t.Errorf("stats %+v, want 3 sets / 2 admissions / 1 eviction", st)
	}
	// Oversized set is rejected.
	if s.Set(Request{Time: 5, Key: 10, Size: 1000}) {
		t.Error("oversized Set should be refused")
	}
}

// panicOnHit is an LRU whose OnHit panics.
type panicOnHit struct{ *testLRU }

func (p panicOnHit) OnHit(Request) { panic("policy bug") }

// TestServeBatchPanicUnlocks: a policy that panics inside a batch
// leaves its shard unlocked, so the engine keeps serving.
func TestServeBatchPanicUnlocks(t *testing.T) {
	s, err := NewSharded(1024, 1, SingleFactory(panicOnHit{newTestLRU()}))
	if err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the policy's panic did not reach the caller")
			}
		}()
		ops := []Op{{Key: 1, Size: 8, Time: 1}, {Key: 1, Size: 8, Time: 2}} // a miss, then a hit
		s.ServeBatch(ops, make([]bool, len(ops)))
	}()
	if s.Handle(Request{Time: 3, Key: 2, Size: 8}) { // deadlocks if the shard stayed locked
		t.Error("a fresh key hit")
	}
}

func TestSingleFactorySecondShardErrors(t *testing.T) {
	f := SingleFactory(newTestLRU())
	if _, err := f(0, 10); err != nil {
		t.Fatalf("first call: %v", err)
	}
	if _, err := f(1, 10); err == nil {
		t.Fatal("second call must error: one instance cannot serve two lock domains")
	}
}

// TestShardedConcurrent hammers a sharded cache from many goroutines
// (mixed Handle/Set, batches through ServeBatch, plus snapshot
// readers) and reconciles the merged
// totals with the client-side counts. Run under -race this is the
// engine-level half of the cross-shard safety story.
func TestShardedConcurrent(t *testing.T) {
	const (
		workers = 16
		reqs    = 2000
	)
	s := newTestSharded(t, 1<<16, 8)
	var co obs.ShardedCacheObs
	co.Init(s.Shards())
	reg := obs.NewRegistry()
	co.Register(reg, "cache")
	for i := 0; i < s.Shards(); i++ {
		s.SetShardObs(i, co.Shard(i))
	}

	var wg sync.WaitGroup
	var gets, sets atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			g := stats.NewRNG(int64(w + 1))
			// Odd workers serve their ops in batches of 16 (ServeBatch);
			// even ones op by op.
			var batch []Op
			res := make([]bool, 16)
			for i := 0; i < reqs; i++ {
				k := Key(g.Intn(4096))
				r := Request{Time: int64(i), Key: k, Size: int64(1 + int(k)%32)}
				set := g.Float64() < 0.1
				switch {
				case w%2 == 1:
					batch = append(batch, Op{Set: set, Key: r.Key, Size: r.Size, Time: r.Time})
					if len(batch) == len(res) {
						s.ServeBatch(batch, res)
						batch = batch[:0]
					}
				case set:
					s.Set(r)
				default:
					s.Handle(r)
				}
				if set {
					sets.Add(1)
				} else {
					gets.Add(1)
				}
				if i%256 == 0 {
					_ = s.StatsSnapshot()
					_ = s.Used()
				}
			}
			s.ServeBatch(batch, res[:len(batch)])
		}(w)
	}
	wg.Wait()

	st := s.StatsSnapshot()
	if st.Requests != gets.Load() || st.Sets != sets.Load() {
		t.Errorf("engine saw %d lookups / %d sets, clients issued %d / %d",
			st.Requests, st.Sets, gets.Load(), sets.Load())
	}
	if s.Used() > s.Capacity() {
		t.Errorf("used %d exceeds capacity %d", s.Used(), s.Capacity())
	}
	// Quiescent obs totals reconcile exactly with the merged stats.
	m := make(map[string]int64)
	for _, kv := range reg.Snapshot() {
		m[kv.Name] = kv.Value
	}
	if m["cache.requests"] != st.Requests || m["cache.sets"] != st.Sets ||
		m["cache.hits"] != st.Hits || m["cache.evictions"] != st.Evictions {
		t.Errorf("merged obs %v does not reconcile with stats %+v", m, st)
	}
	if m["cache.used_bytes"] != s.Used() || m["cache.objects"] != int64(s.Len()) {
		t.Errorf("merged occupancy gauges do not reconcile")
	}
	var perShardReqs int64
	for i := 0; i < s.Shards(); i++ {
		perShardReqs += m[fmt.Sprintf("cache.shard%d.requests", i)]
	}
	if perShardReqs != st.Requests {
		t.Errorf("per-shard request counters sum to %d, want %d", perShardReqs, st.Requests)
	}
}

// ShardCapacity returns shard i's byte capacity.
func (s *Sharded) ShardCapacity(i int) int64 { return s.shards[i].capacity }
