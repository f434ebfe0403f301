package cache

import (
	"container/list"
	"runtime"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"raven/internal/obs"
	"raven/internal/stats"
)

// testLRU is a minimal LRU policy for exercising the engine.
type testLRU struct {
	ll    *list.List
	items map[Key]*list.Element
}

func newTestLRU() *testLRU {
	return &testLRU{ll: list.New(), items: make(map[Key]*list.Element)}
}

func (p *testLRU) Name() string { return "test-lru" }
func (p *testLRU) OnHit(req Request) {
	if e, ok := p.items[req.Key]; ok {
		p.ll.MoveToFront(e)
	}
}
func (p *testLRU) OnMiss(Request) {}
func (p *testLRU) OnAdmit(req Request) {
	p.items[req.Key] = p.ll.PushFront(req.Key)
}
func (p *testLRU) OnEvict(key Key) {
	if e, ok := p.items[key]; ok {
		p.ll.Remove(e)
		delete(p.items, key)
	}
}
func (p *testLRU) Victim() (Key, bool) {
	if b := p.ll.Back(); b != nil {
		return b.Value.(Key), true
	}
	return 0, false
}

func req(t int64, k Key, s int64) Request { return Request{Time: t, Key: k, Size: s} }

func TestCacheHitMiss(t *testing.T) {
	c := New(10, newTestLRU())
	if c.Handle(req(1, 1, 4)) {
		t.Error("first access must miss")
	}
	if !c.Handle(req(2, 1, 4)) {
		t.Error("second access must hit")
	}
	st := c.StatsSnapshot()
	if st.Requests != 2 || st.Hits != 1 || st.HitBytes != 4 || st.ReqBytes != 8 {
		t.Errorf("bad stats: %+v", st)
	}
}

func TestCacheEvictsToFit(t *testing.T) {
	c := New(10, newTestLRU())
	c.Handle(req(1, 1, 4))
	c.Handle(req(2, 2, 4))
	c.Handle(req(3, 3, 7)) // 8+7 > 10: must evict both 1 and 2
	if c.Contains(1) || c.Contains(2) {
		t.Error("older entries should be evicted")
	}
	if !c.Contains(3) {
		t.Error("new entry should be admitted")
	}
	if c.Used() != 7 {
		t.Errorf("used %d, want 7", c.Used())
	}
	if c.StatsSnapshot().Evictions != 2 {
		t.Errorf("evictions %d, want 2", c.StatsSnapshot().Evictions)
	}
}

func TestCacheRejectsOversized(t *testing.T) {
	c := New(10, newTestLRU())
	c.Handle(req(1, 1, 4))
	c.Handle(req(2, 2, 100)) // bigger than capacity
	if c.Contains(2) {
		t.Error("oversized object must not be admitted")
	}
	if !c.Contains(1) {
		t.Error("existing entry should survive an oversized miss")
	}
	if c.StatsSnapshot().Rejections != 1 {
		t.Errorf("rejections %d", c.StatsSnapshot().Rejections)
	}
}

type denyAll struct{ *testLRU }

func (denyAll) Admit(Request) Decision { return Reject(RejectPolicy) }

func TestCacheAdmissionControl(t *testing.T) {
	c := New(10, denyAll{newTestLRU()})
	c.Handle(req(1, 1, 4))
	if c.Len() != 0 {
		t.Error("admitter should have rejected everything")
	}
	if c.StatsSnapshot().Rejections != 1 {
		t.Errorf("rejections %d", c.StatsSnapshot().Rejections)
	}
}

func TestOneHitWonderCounting(t *testing.T) {
	c := New(4, newTestLRU())
	c.Handle(req(1, 1, 4)) // admitted, never hit
	c.Handle(req(2, 2, 4)) // evicts 1 -> one-hit wonder
	c.Handle(req(3, 2, 4)) // hit
	c.Handle(req(4, 3, 4)) // evicts 2 (which was hit)
	st := c.StatsSnapshot()
	if st.OneHitWonders != 1 {
		t.Errorf("one-hit wonders %d, want 1", st.OneHitWonders)
	}
}

func TestEvictionObserverSeesResidentVictim(t *testing.T) {
	c := New(4, newTestLRU())
	var observed []Key
	c.SetEvictionObserver(func(v Key, resident func([]Key) []Key) {
		if keys := resident(nil); !slices.Equal(keys, []Key{1, 2}) {
			t.Errorf("observer saw resident keys %v, want the victim and its neighbour [1 2]", keys)
		}
		observed = append(observed, v)
	})
	c.Handle(req(1, 1, 2))
	c.Handle(req(2, 2, 2))
	c.Handle(req(3, 3, 2))
	if len(observed) != 1 || observed[0] != 1 {
		t.Errorf("observed %v, want [1]", observed)
	}
}

func TestCacheInvariantsUnderRandomWorkload(t *testing.T) {
	f := func(seed int64) bool {
		g := stats.NewRNG(seed)
		c := New(50, newTestLRU())
		for i := 0; i < 2000; i++ {
			k := Key(g.Intn(40))
			s := int64(1 + g.Intn(10))
			// Engine requires consistent sizes per key.
			s = int64(1 + int(k)%10)
			c.Handle(req(int64(i), k, s))
			if c.Used() > c.Capacity() {
				return false
			}
			_ = s
		}
		st := c.StatsSnapshot()
		return st.Hits+st.Admissions+st.Rejections == st.Requests &&
			st.HitBytes <= st.ReqBytes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestStatsRatios(t *testing.T) {
	s := Stats{Requests: 10, Hits: 4, ReqBytes: 100, HitBytes: 25}
	if s.OHR() != 0.4 || s.BHR() != 0.25 || s.MissBytes() != 75 {
		t.Errorf("bad ratios: %+v", s)
	}
	var zero Stats
	if zero.OHR() != 0 || zero.BHR() != 0 {
		t.Error("zero stats should have zero ratios")
	}
}

func TestSampledSetBasics(t *testing.T) {
	s := NewSampledSet[int]()
	s.Add(1, 10)
	s.Add(2, 20)
	s.Add(1, 11) // overwrite
	if s.Len() != 2 {
		t.Fatalf("len %d", s.Len())
	}
	if v, ok := s.Get(1); !ok || v != 11 {
		t.Errorf("Get(1) = %v,%v", v, ok)
	}
	s.Remove(1)
	if _, ok := s.Get(1); ok {
		t.Error("1 should be gone")
	}
	if s.Len() != 1 {
		t.Errorf("len %d after remove", s.Len())
	}
	s.Remove(99) // no-op
}

func TestSampledSetRef(t *testing.T) {
	s := NewSampledSet[int]()
	s.Add(5, 1)
	if p := s.Ref(5); p == nil {
		t.Fatal("Ref returned nil")
	} else {
		*p = 42
	}
	if v, _ := s.Get(5); v != 42 {
		t.Errorf("in-place update lost: %v", v)
	}
	if s.Ref(6) != nil {
		t.Error("Ref of missing key should be nil")
	}
}

func TestSampledSetSampleDistinct(t *testing.T) {
	s := NewSampledSet[struct{}]()
	for k := Key(0); k < 100; k++ {
		s.Add(k, struct{}{})
	}
	g := stats.NewRNG(3)
	idx := s.Sample(g, 30, nil)
	if len(idx) != 30 {
		t.Fatalf("sampled %d, want 30", len(idx))
	}
	seen := map[int]bool{}
	for _, i := range idx {
		if seen[i] {
			t.Fatal("duplicate sample index")
		}
		seen[i] = true
	}
	// Requesting more than available returns everything.
	idx = s.Sample(g, 500, idx)
	if len(idx) != 100 {
		t.Errorf("oversample returned %d", len(idx))
	}
}

func TestSampledSetSwapDeleteConsistency(t *testing.T) {
	f := func(seed int64) bool {
		g := stats.NewRNG(seed)
		s := NewSampledSet[int]()
		ref := make(map[Key]int)
		for i := 0; i < 500; i++ {
			k := Key(g.Intn(50))
			if g.Float64() < 0.6 {
				s.Add(k, i)
				ref[k] = i
			} else {
				s.Remove(k)
				delete(ref, k)
			}
			if s.Len() != len(ref) {
				return false
			}
		}
		for k, v := range ref {
			got, ok := s.Get(k)
			if !ok || got != v {
				return false
			}
		}
		// Every At index must round-trip through the index map.
		for i := 0; i < s.Len(); i++ {
			k, vp := s.At(i)
			if want := ref[k]; *vp != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestSampledSetRemoveReleasesValue: Remove must not leave the removed
// value reachable from the slot the truncation vacates, or every
// pointer-holding V a policy ever stored is pinned by the backing array.
func TestSampledSetRemoveReleasesValue(t *testing.T) {
	type payload struct {
		self *payload
		pad  [4]int64
	}
	s := NewSampledSet[*payload]()
	collected := make(chan struct{})
	func() {
		p := &payload{}
		runtime.SetFinalizer(p, func(*payload) { close(collected) })
		s.Add(1, p)
	}()
	s.Remove(1)
	deadline := time.After(5 * time.Second)
	for {
		runtime.GC()
		select {
		case <-collected:
			runtime.KeepAlive(s)
			return
		case <-deadline:
			t.Fatal("a removed pointer value is still reachable from the set")
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// TestCacheObsWiring: attached obs metrics mirror the engine's own
// statistics and occupancy exactly, and detach cleanly.
func TestCacheObsWiring(t *testing.T) {
	c := New(10, newTestLRU())
	var co obs.CacheObs
	c.SetShardObs(0, &co)
	c.Handle(req(1, 1, 4))  // miss, admit
	c.Handle(req(2, 1, 4))  // hit
	c.Handle(req(3, 2, 8))  // miss, evicts 1, admit
	c.Handle(req(4, 3, 20)) // oversized: reject

	st := c.StatsSnapshot()
	if co.Requests.Load() != st.Requests || co.Hits.Load() != st.Hits {
		t.Errorf("obs (%d req, %d hits) != stats (%d, %d)",
			co.Requests.Load(), co.Hits.Load(), st.Requests, st.Hits)
	}
	if co.Evictions.Load() != st.Evictions || co.Admissions.Load() != st.Admissions ||
		co.Rejections.Load() != st.Rejections {
		t.Errorf("obs (%d ev, %d adm, %d rej) != stats (%d, %d, %d)",
			co.Evictions.Load(), co.Admissions.Load(), co.Rejections.Load(),
			st.Evictions, st.Admissions, st.Rejections)
	}
	if co.UsedBytes.Load() != c.Used() || co.Objects.Load() != int64(c.Len()) {
		t.Errorf("obs occupancy (%d B, %d obj) != cache (%d, %d)",
			co.UsedBytes.Load(), co.Objects.Load(), c.Used(), c.Len())
	}

	// Attaching to a warm cache seeds the gauges immediately.
	var co2 obs.CacheObs
	c.SetShardObs(0, &co2)
	if co2.UsedBytes.Load() != c.Used() || co2.Objects.Load() != int64(c.Len()) {
		t.Error("SetShardObs did not seed occupancy gauges")
	}

	// Detach: further traffic must not touch the old metrics, and the
	// shard counts afresh into a private block.
	c.SetShardObs(0, nil)
	before := co2.Requests.Load()
	c.Handle(req(5, 2, 8))
	if co2.Requests.Load() != before {
		t.Error("detached obs still receiving updates")
	}
	if st := c.StatsSnapshot(); st.Requests != 1 || st.Hits != 1 || !c.Contains(2) {
		t.Errorf("after detach: %+v, want one hit on a fresh block with contents kept", st)
	}
}

// TestEvictAllocFree: the lock-held eviction section — the policy's
// Victim, then evict's observer call, entry-map delete, counters,
// metrics and OnEvict — allocates nothing. The serving-path alloc
// tests overwrite same-size objects and never evict, so this is the
// section's own referee.
func TestEvictAllocFree(t *testing.T) {
	const runs = 200 // AllocsPerRun adds one warm-up call
	c := New(runs+1, newTestLRU())
	var co obs.CacheObs
	c.SetShardObs(0, &co)
	observed := 0
	c.SetEvictionObserver(func(Key, func([]Key) []Key) { observed++ })
	for k := Key(0); k <= runs; k++ {
		c.Handle(req(int64(k), k, 1))
	}
	sh := &c.shards[0]
	avg := testing.AllocsPerRun(runs, func() {
		victim, ok := sh.policy.Victim()
		if !ok {
			t.Fatal("no victim in a full cache")
		}
		sh.evict(victim)
	})
	if avg != 0 {
		t.Errorf("Victim + evict: %v allocs/op, want 0", avg)
	}
	if observed != runs+1 || c.Len() != 0 || c.Used() != 0 ||
		c.StatsSnapshot().Evictions != runs+1 || co.Evictions.Load() != runs+1 {
		t.Errorf("after %d evictions: observer saw %d, %d objects / %d B left, stats %d, obs %d",
			runs+1, observed, c.Len(), c.Used(), c.StatsSnapshot().Evictions, co.Evictions.Load())
	}
}
