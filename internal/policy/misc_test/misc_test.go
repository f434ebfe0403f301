// Package misc_test exercises the smaller baseline policies (Random,
// Hyperbolic, LHD, LeCaR, UCB, AdaptSize, Parrot) through the cache
// engine on shared workloads.
package misc_test

import (
	"testing"

	"raven/internal/cache"
	"raven/internal/policy/adaptsize"
	"raven/internal/policy/hyperbolic"
	"raven/internal/policy/lecar"
	"raven/internal/policy/lhd"
	"raven/internal/policy/lru"
	"raven/internal/policy/parrot"
	"raven/internal/policy/random"
	"raven/internal/policy/ucb"
	"raven/internal/trace"
)

func zipfTrace(seed int64) *trace.Trace {
	tr := trace.Synthetic(trace.SynthConfig{
		Objects: 300, Requests: 40000, Interarrival: trace.Poisson, Seed: seed,
	})
	tr.AnnotateNext()
	return tr
}

func ohr(t *testing.T, p cache.Policy, tr *trace.Trace, capacity int64) float64 {
	t.Helper()
	c := cache.New(capacity, p)
	for _, r := range tr.Reqs {
		c.Handle(r)
	}
	if c.Used() > c.Capacity() {
		t.Fatalf("%s: capacity violated", p.Name())
	}
	return c.StatsSnapshot().OHR()
}

func TestRandomIsWorseThanLRUOnZipf(t *testing.T) {
	tr := zipfTrace(1)
	r := ohr(t, random.New(1), tr, 50)
	l := ohr(t, lru.New(), tr, 50)
	if r > l+0.05 {
		t.Errorf("random OHR %.4f should not beat LRU %.4f by much", r, l)
	}
	if r < 0.02 {
		t.Errorf("random OHR %.4f implausibly low", r)
	}
}

func TestHyperbolicBeatsRandom(t *testing.T) {
	tr := zipfTrace(2)
	h := ohr(t, hyperbolic.New(1), tr, 50)
	r := ohr(t, random.New(1), tr, 50)
	if h <= r {
		t.Errorf("hyperbolic %.4f should beat random %.4f", h, r)
	}
}

func TestLHDRunsAndReconfigures(t *testing.T) {
	tr := zipfTrace(3)
	p := lhd.New(1)
	got := ohr(t, p, tr, 50)
	if got <= 0.05 {
		t.Errorf("LHD OHR %.4f implausible", got)
	}
}

func TestLeCaRWeightsAdapt(t *testing.T) {
	tr := zipfTrace(4)
	p := lecar.New(1)
	ohr(t, p, tr, 50)
	wl, wf := p.Weights()
	if wl < 0 || wf < 0 || wl+wf < 0.99 || wl+wf > 1.01 {
		t.Errorf("weights must stay a distribution: %v %v", wl, wf)
	}
	// On a Zipf/Poisson workload the LFU expert should gain weight.
	if wf < 0.3 {
		t.Errorf("LFU expert weight %.3f suspiciously low for a frequency-dominated workload", wf)
	}
}

func TestUCBPullsAllArms(t *testing.T) {
	tr := zipfTrace(5)
	p := ucb.New(1)
	ohr(t, p, tr, 50)
	pulls, means := p.ArmStats()
	for a, n := range pulls {
		if n == 0 {
			t.Errorf("arm %d never credited", a)
		}
		if means[a] < 0 || means[a] > 1 {
			t.Errorf("arm %d mean reward %v out of range", a, means[a])
		}
	}
}

func TestAdaptSizeRejectsHugeObjects(t *testing.T) {
	p := adaptsize.New(10000, 1)
	c := cache.New(10000, p)
	rejected := 0
	for i := 0; i < 100; i++ {
		if !c.Handle(cache.Request{Time: int64(i), Key: cache.Key(i), Size: 5000}) && !c.Contains(cache.Key(i)) {
			rejected++
		}
	}
	if rejected < 50 {
		t.Errorf("exp(-size/c) admission should reject most huge objects, rejected only %d", rejected)
	}
	admitted := 0
	for i := 0; i < 100; i++ {
		c.Handle(cache.Request{Time: int64(200 + i), Key: cache.Key(1000 + i), Size: 1})
		if c.Contains(cache.Key(1000 + i)) {
			admitted++
		}
	}
	if admitted < 90 {
		t.Errorf("tiny objects should almost always be admitted, got %d/100", admitted)
	}
}

func TestParrotImitatesTeacher(t *testing.T) {
	tr := zipfTrace(6)
	p := parrot.New(parrot.Config{TeacherEpisodes: 500, Epochs: 4, Seed: 1})
	got := ohr(t, p, tr, 50)
	if !p.Trained() {
		t.Fatal("parrot never finished its teacher phase")
	}
	rnd := ohr(t, random.New(2), zipfTrace(6), 50)
	if got <= rnd {
		t.Errorf("parrot OHR %.4f should beat random %.4f after imitation", got, rnd)
	}
}
