package sketch

import (
	"testing"

	"raven/internal/stats"
)

func TestCountMinNeverUnderestimates(t *testing.T) {
	cm := NewCountMin(4, 1024, 0)
	truth := map[uint64]uint32{}
	g := stats.NewRNG(1)
	for i := 0; i < 5000; i++ {
		k := uint64(g.Intn(300))
		cm.Add(k)
		truth[k]++
	}
	for k, want := range truth {
		if got := cm.Estimate(k); got < min(want, maxCount) {
			t.Fatalf("key %d: estimate %d below true count %d", k, got, want)
		}
	}
}

func TestCountMinSeparatesHotAndCold(t *testing.T) {
	cm := NewCountMin(4, 4096, 0)
	for i := 0; i < 200; i++ {
		cm.Add(7)
	}
	cm.Add(99)
	if cm.Estimate(7) <= cm.Estimate(99) {
		t.Errorf("hot key estimate %d should exceed cold %d", cm.Estimate(7), cm.Estimate(99))
	}
}

func TestCountMinAging(t *testing.T) {
	cm := NewCountMin(4, 1024, 100)
	for i := 0; i < 99; i++ {
		cm.Add(1)
	}
	before := cm.Estimate(1)
	cm.Add(1) // triggers halving
	after := cm.Estimate(1)
	if after >= before {
		t.Errorf("aging should halve counters: before %d, after %d", before, after)
	}
}

func TestBloomBasics(t *testing.T) {
	b := NewBloom(1000)
	if b.Contains(42) {
		t.Error("empty filter should not contain anything")
	}
	if b.AddIfMissing(42) {
		t.Error("first insert should report missing")
	}
	if !b.Contains(42) {
		t.Error("inserted key must be present")
	}
	if !b.AddIfMissing(42) {
		t.Error("second insert should report present")
	}
}

func TestBloomFalsePositiveRate(t *testing.T) {
	b := NewBloom(10000)
	for k := uint64(0); k < 5000; k++ {
		b.AddIfMissing(k)
	}
	fp := 0
	n := 20000
	for k := uint64(1 << 32); k < uint64(1<<32)+uint64(n); k++ {
		if b.Contains(k) {
			fp++
		}
	}
	if rate := float64(fp) / float64(n); rate > 0.05 {
		t.Errorf("false positive rate %.3f too high", rate)
	}
}

func TestBloomSelfReset(t *testing.T) {
	b := NewBloom(100)
	for k := uint64(0); k < 150; k++ {
		b.AddIfMissing(k)
	}
	// After absorbing > capacity distinct keys a reset happened, so
	// early keys are (probably) gone.
	gone := 0
	for k := uint64(0); k < 50; k++ {
		if !b.Contains(k) {
			gone++
		}
	}
	if gone == 0 {
		t.Error("doorkeeper never reset")
	}
}
