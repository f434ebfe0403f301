package misc_test

import (
	"testing"

	"raven/internal/cache"
	"raven/internal/policy/arc"
	"raven/internal/policy/lru"
	"raven/internal/policy/tinylfu"
	"raven/internal/trace"
)

func TestARCCapacityAndAdaptation(t *testing.T) {
	tr := zipfTrace(10)
	p := arc.New(50)
	got := ohr(t, p, tr, 50)
	l := ohr(t, lru.New(), zipfTrace(10), 50)
	if got < l-0.02 {
		t.Errorf("ARC OHR %.4f should be at least LRU %.4f on a Zipf workload", got, l)
	}
}

func TestARCGhostHitsPromoteToT2(t *testing.T) {
	p := arc.New(2)
	c := cache.New(2, p)
	req := func(tm int64, k trace.Key) { c.Handle(cache.Request{Time: tm, Key: k, Size: 1}) }
	req(1, 1)
	req(2, 2)
	req(3, 3) // evicts 1 to ghost B1
	req(4, 1) // ghost hit: p grows, 1 re-admitted to T2
	if p.TargetP() == 0 {
		t.Error("B1 ghost hit should have grown the adaptation target")
	}
	if !c.Contains(1) {
		t.Error("ghost-hit object should be re-admitted")
	}
}

func TestARCScanResistance(t *testing.T) {
	// A one-shot scan should not wipe out a hot working set the way it
	// does under LRU.
	hot := func() []cache.Request {
		var reqs []cache.Request
		tm := int64(0)
		for round := 0; round < 50; round++ {
			for k := trace.Key(1); k <= 20; k++ {
				tm++
				reqs = append(reqs, cache.Request{Time: tm, Key: k, Size: 1})
			}
		}
		// Scan of 200 cold keys.
		for k := trace.Key(1000); k < 1200; k++ {
			tm++
			reqs = append(reqs, cache.Request{Time: tm, Key: k, Size: 1})
		}
		// Hot set again.
		for round := 0; round < 10; round++ {
			for k := trace.Key(1); k <= 20; k++ {
				tm++
				reqs = append(reqs, cache.Request{Time: tm, Key: k, Size: 1})
			}
		}
		return reqs
	}
	run := func(p cache.Policy) float64 {
		c := cache.New(25, p)
		for _, r := range hot() {
			c.Handle(r)
		}
		return c.StatsSnapshot().OHR()
	}
	if a, l := run(arc.New(25)), run(lru.New()); a < l {
		t.Errorf("ARC OHR %.4f should beat LRU %.4f under a scan", a, l)
	}
}

func TestTinyLFURejectsOneHitWonders(t *testing.T) {
	p := tinylfu.New(50, 100)
	c := cache.New(50, p)
	// Build a hot working set.
	tm := int64(0)
	for round := 0; round < 20; round++ {
		for k := trace.Key(1); k <= 50; k++ {
			tm++
			c.Handle(cache.Request{Time: tm, Key: k, Size: 1})
		}
	}
	// Stream of singletons: TinyLFU should reject most of them.
	rejBefore := c.StatsSnapshot().Rejections
	for k := trace.Key(10000); k < 10300; k++ {
		tm++
		c.Handle(cache.Request{Time: tm, Key: k, Size: 1})
	}
	rejected := c.StatsSnapshot().Rejections - rejBefore
	if rejected < 200 {
		t.Errorf("TinyLFU rejected only %d/300 one-hit wonders", rejected)
	}
	// The hot set must still be hitting.
	hitsBefore := c.StatsSnapshot().Hits
	for k := trace.Key(1); k <= 50; k++ {
		tm++
		c.Handle(cache.Request{Time: tm, Key: k, Size: 1})
	}
	if c.StatsSnapshot().Hits-hitsBefore < 45 {
		t.Error("hot set was damaged by the singleton scan")
	}
}

func TestTinyLFUBeatsLRUOnScanHeavyWorkload(t *testing.T) {
	tr := zipfTrace(11)
	tl := ohr(t, tinylfu.New(50, 200), tr, 50)
	l := ohr(t, lru.New(), zipfTrace(11), 50)
	if tl <= l {
		t.Errorf("TinyLFU OHR %.4f should beat LRU %.4f on a Zipf workload", tl, l)
	}
}

func TestTinyLFUAdmitsIntoFreeSpace(t *testing.T) {
	p := tinylfu.New(100, 100)
	c := cache.New(100, p)
	c.Handle(cache.Request{Time: 1, Key: 1, Size: 10})
	if !c.Contains(1) {
		t.Error("newcomer must be admitted while the cache has free space")
	}
}
