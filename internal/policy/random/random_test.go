package random

import (
	"testing"

	"raven/internal/cache"
)

func TestEvictsUniformly(t *testing.T) {
	p := New(1)
	c := cache.New(10, p)
	evicted := map[cache.Key]int{}
	c.SetEvictionObserver(func(v cache.Key, _ func([]cache.Key) []cache.Key) { evicted[v]++ })
	for i := 0; i < 5000; i++ {
		c.Handle(cache.Request{Time: int64(i), Key: cache.Key(i % 40), Size: 1})
	}
	if len(evicted) < 30 {
		t.Errorf("only %d distinct keys ever evicted — not uniform", len(evicted))
	}
}

func TestVictimEmpty(t *testing.T) {
	p := New(2)
	if _, ok := p.Victim(); ok {
		t.Error("empty policy should report no victim")
	}
}
