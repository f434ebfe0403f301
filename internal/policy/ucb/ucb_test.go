package ucb

import (
	"testing"

	"raven/internal/cache"
	"raven/internal/trace"
)

func req(t int64, k cache.Key, s int64) cache.Request {
	return cache.Request{Time: t, Key: k, Size: s}
}

func TestChooseArmTriesAllFirst(t *testing.T) {
	p := New(1)
	seen := map[int]bool{}
	for i := 0; i < numArms; i++ {
		a := p.chooseArm()
		seen[a] = true
		p.credit(a, 0.5)
	}
	if len(seen) != numArms {
		t.Errorf("UCB should pull each arm once before exploiting, saw %v", seen)
	}
}

func TestSettleRewardsQuietEvictions(t *testing.T) {
	p := New(2)
	c := cache.New(2, p)
	c.Handle(req(1, 1, 1))
	c.Handle(req(2, 2, 1))
	c.Handle(req(3, 3, 1)) // evicts something
	// Advance far beyond the reward window with fresh keys.
	for i := 0; i < rewardWindow+10; i++ {
		c.Handle(req(int64(10+i), cache.Key(100+i%2), 1))
	}
	pulls, means := p.ArmStats()
	total := 0.0
	for a := range pulls {
		total += pulls[a]
		if means[a] < 0 || means[a] > 1 {
			t.Errorf("arm %d mean %v out of [0,1]", a, means[a])
		}
	}
	if total == 0 {
		t.Error("no arm was ever credited")
	}
}

func TestPenalizedOnQuickReRequest(t *testing.T) {
	p := New(3)
	c := cache.New(1, p)
	c.Handle(req(1, 1, 1))
	c.Handle(req(2, 2, 1)) // evicts 1
	c.Handle(req(3, 1, 1)) // re-request of the evicted key: reward 0
	pulls, means := p.ArmStats()
	credited := false
	for a := range pulls {
		if pulls[a] > 0 {
			credited = true
			if means[a] > 0 {
				t.Errorf("arm %d mean %v, want 0 after immediate regret", a, means[a])
			}
		}
	}
	if !credited {
		t.Error("the regretted eviction should have been settled")
	}
}

// ArmStats returns per-arm pull counts and mean rewards (for tests).
func (p *UCB) ArmStats() (pulls, means [numArms]float64) {
	pulls = p.pulls
	for a := 0; a < numArms; a++ {
		if p.pulls[a] > 0 {
			means[a] = p.rewards[a] / p.pulls[a]
		}
	}
	return pulls, means
}

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

func TestUCBPullsAllArms(t *testing.T) {
	p := New(1)
	ohr(t, p, zipfTrace(5), 50)
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
