package hyperbolic

import (
	"testing"

	"raven/internal/cache"
)

func req(t int64, k cache.Key, s int64) cache.Request {
	return cache.Request{Time: t, Key: k, Size: s}
}

func TestEvictsLowestHitRate(t *testing.T) {
	p := New(1)
	c := cache.New(2, p)
	c.Handle(req(0, 1, 1))
	c.Handle(req(0, 2, 1))
	// Key 1 hits often; key 2 never again.
	for i := int64(1); i <= 50; i++ {
		c.Handle(req(i, 1, 1))
	}
	c.Handle(req(60, 3, 1))
	if c.Contains(2) {
		t.Error("the hitless object should be evicted")
	}
	if !c.Contains(1) {
		t.Error("the hot object should survive")
	}
}

func TestSizeAwareEvictsLargeFirst(t *testing.T) {
	p := New(2, WithSizeAware())
	c := cache.New(30, p)
	c.Handle(req(0, 1, 20))
	c.Handle(req(0, 2, 5))
	for i := int64(1); i <= 10; i++ { // equal hit counts
		c.Handle(req(i, 1, 20))
		c.Handle(req(i, 2, 5))
	}
	c.Handle(req(20, 3, 10))
	if c.Contains(1) {
		t.Error("size-aware hyperbolic should evict the large object")
	}
}

func TestSampleSizeOption(t *testing.T) {
	p := New(3, WithSampleSize(4))
	c := cache.New(100, p)
	for i := 0; i < 1000; i++ {
		c.Handle(req(int64(i), cache.Key(i%200), 1))
	}
	if c.Used() > 100 {
		t.Errorf("capacity violated: %d", c.Used())
	}
}

// WithSampleSize overrides the default 64-candidate sample.
func WithSampleSize(n int) Option {
	return func(p *Hyperbolic) { p.sampleN = n }
}
