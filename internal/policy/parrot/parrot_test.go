package parrot

import (
	"math"
	"testing"

	"raven/internal/cache"
	"raven/internal/policy/random"
	"raven/internal/trace"
)

func TestFeatureVectorShape(t *testing.T) {
	p := New(Config{Seed: 1})
	p.now = 100
	m := &meta{lastAccess: 90, admitTime: 50, freq: 3}
	m.taus[0] = 10
	f := p.features(m)
	if len(f) != numFeatures {
		t.Fatalf("feature length %d, want %d", len(f), numFeatures)
	}
	if f[numTaus] != math.Log1p(10) { // age
		t.Errorf("age feature %v", f[numTaus])
	}
	if f[numTaus+1] != math.Log1p(3) { // freq
		t.Errorf("freq feature %v", f[numTaus+1])
	}
}

func TestTeacherPhaseFollowsBelady(t *testing.T) {
	p := New(Config{TeacherEpisodes: 1000, Seed: 2})
	c := cache.New(2, p)
	// Key 1 next at 100, key 2 next at 5: teacher must evict 1.
	c.Handle(cache.Request{Time: 1, Key: 1, Size: 1, Next: 100})
	c.Handle(cache.Request{Time: 2, Key: 2, Size: 1, Next: 5})
	c.Handle(cache.Request{Time: 3, Key: 3, Size: 1, Next: 50})
	if c.Contains(1) {
		t.Error("teacher phase should evict the farthest-next-arrival object")
	}
	if !c.Contains(2) {
		t.Error("the soon-needed object should survive")
	}
	if p.Trained() {
		t.Error("should still be in teacher phase")
	}
}

func TestTrainingTriggersAfterEpisodes(t *testing.T) {
	p := New(Config{TeacherEpisodes: 5, Epochs: 2, Seed: 3})
	c := cache.New(2, p)
	for i := 0; i < 40; i++ {
		c.Handle(cache.Request{Time: int64(i), Key: cache.Key(i % 7), Size: 1, Next: int64(i + 7)})
	}
	if !p.Trained() {
		t.Error("imitator should have trained after enough episodes")
	}
	if p.episodes != nil {
		t.Error("episode buffer should be released after training")
	}
}

// Trained reports whether the imitator has been fit.
func (p *Parrot) Trained() bool { return p.trained }

// zipfTrace is a Zipf workload over 300 objects with Poisson renewals.
func zipfTrace(seed int64) *trace.Trace {
	tr := trace.Synthetic(trace.SynthConfig{
		Objects: 300, Requests: 40000, Interarrival: trace.Poisson, Seed: seed,
	})
	tr.AnnotateNext()
	return tr
}

// ohr replays tr through a cache of the given capacity driven by p.
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

func TestParrotImitatesTeacher(t *testing.T) {
	p := New(Config{TeacherEpisodes: 500, Epochs: 4, Seed: 1})
	got := ohr(t, p, zipfTrace(6), 50)
	if !p.Trained() {
		t.Fatal("parrot never finished its teacher phase")
	}
	rnd := ohr(t, random.New(2), zipfTrace(6), 50)
	if got <= rnd {
		t.Errorf("parrot OHR %.4f should beat random %.4f after imitation", got, rnd)
	}
}
