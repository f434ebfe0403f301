package freq

import (
	"testing"

	"raven/internal/cache"
)

func req(t int64, k cache.Key, s int64) cache.Request {
	return cache.Request{Time: t, Key: k, Size: s}
}

func TestLFUEvictsLeastFrequent(t *testing.T) {
	c := cache.New(3, NewLFU())
	c.Handle(req(1, 1, 1))
	c.Handle(req(2, 2, 1))
	c.Handle(req(3, 3, 1))
	c.Handle(req(4, 1, 1))
	c.Handle(req(5, 1, 1))
	c.Handle(req(6, 3, 1))
	c.Handle(req(7, 4, 1)) // 2 has freq 1: evicted
	if c.Contains(2) {
		t.Error("least frequent object should be evicted")
	}
	if !c.Contains(1) || !c.Contains(3) {
		t.Error("frequent objects should survive")
	}
}

func TestLFUTieBreaksFIFO(t *testing.T) {
	c := cache.New(2, NewLFU())
	c.Handle(req(1, 1, 1))
	c.Handle(req(2, 2, 1))
	c.Handle(req(3, 3, 1)) // tie freq=1: evict oldest insertion (1)
	if c.Contains(1) {
		t.Error("tie should evict the oldest insertion")
	}
}

func TestLFUDAAging(t *testing.T) {
	// LFUDA: after evictions, the aging offset L lets new objects
	// compete with old frequent ones.
	p := NewLFUDA()
	c := cache.New(2, p)
	c.Handle(req(1, 1, 1))
	for i := 0; i < 10; i++ {
		c.Handle(req(int64(2+i), 1, 1)) // freq(1) = 11
	}
	c.Handle(req(20, 2, 1))
	c.Handle(req(21, 3, 1)) // evicts 2 (freq 1 vs 11); L becomes ~1
	c.Handle(req(22, 4, 1)) // evicts 3
	// After enough churn the L offset grows; eventually key 1 ages out.
	for i := 0; i < 30; i++ {
		c.Handle(req(int64(30+i), cache.Key(10+i), 1))
	}
	if c.Contains(1) {
		t.Error("dynamic aging should eventually evict stale frequent objects")
	}
}

func TestGDSFPrefersSmallObjects(t *testing.T) {
	// Equal frequency: GDSF evicts the larger object first.
	p := NewGDSF()
	c := cache.New(30, p)
	c.Handle(req(1, 1, 20)) // large
	c.Handle(req(2, 2, 5))  // small
	c.Handle(req(3, 3, 10)) // needs 10: evict large (pri freq/size smaller)
	if c.Contains(1) {
		t.Error("GDSF should evict the large object first")
	}
	if !c.Contains(2) {
		t.Error("small object should survive")
	}
}

func TestLRUKUsesKDistance(t *testing.T) {
	// LRU-2: objects with < 2 accesses are evicted before objects with
	// 2 accesses, regardless of recency.
	p := NewLRUK(2)
	c := cache.New(2, p)
	c.Handle(req(1, 1, 1))
	c.Handle(req(2, 1, 1)) // 1 has 2 accesses
	c.Handle(req(3, 2, 1)) // 2 has 1 access (more recent!)
	c.Handle(req(4, 3, 1)) // evict 2 (infinite k-distance)
	if c.Contains(2) {
		t.Error("LRU-2 should evict the single-access object")
	}
	if !c.Contains(1) {
		t.Error("the twice-accessed object should survive")
	}
}

func TestLRUKPanicsOnZeroK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewLRUK(0)
}

func TestHeapConsistencyUnderChurn(t *testing.T) {
	p := NewLFU()
	c := cache.New(10, p)
	for i := 0; i < 5000; i++ {
		c.Handle(req(int64(i), cache.Key(i%25), 1))
	}
	if c.Used() > 10 {
		t.Errorf("capacity violated: %d", c.Used())
	}
	st := c.StatsSnapshot()
	if st.Hits+st.Admissions+st.Rejections != st.Requests {
		t.Errorf("inconsistent stats: %+v", st)
	}
}
