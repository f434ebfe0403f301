package raven_test

import (
	"testing"

	"raven"
)

func simulate(t *testing.T, tr *raven.Trace, p raven.Policy, opts raven.SimOptions) *raven.SimResult {
	t.Helper()
	res, err := raven.Simulate(tr, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestFacadeEndToEnd(t *testing.T) {
	tr := raven.SyntheticTrace(raven.SynthConfig{
		Objects: 200, Requests: 20000, Interarrival: raven.Uniform, Seed: 1,
	})
	p := raven.MustNewPolicy("lru", raven.PolicyOptions{Capacity: 50})
	res := simulate(t, tr, p, raven.SimOptions{Capacity: 50})
	if res.OHR <= 0 || res.OHR >= 1 {
		t.Errorf("implausible OHR %v", res.OHR)
	}
}

func TestFacadeRavenPolicy(t *testing.T) {
	if testing.Short() {
		t.Skip("training test skipped in -short mode")
	}
	tr := raven.SyntheticTrace(raven.SynthConfig{
		Objects: 200, Requests: 30000, Interarrival: raven.Poisson, Seed: 2,
	})
	rv := raven.NewRaven(raven.RavenConfig{
		TrainWindow:     tr.Duration() / 4,
		MaxTrainObjects: 300,
		ResidualSamples: 30,
		Seed:            3,
	})
	res := simulate(t, tr, rv, raven.SimOptions{Capacity: 40, WarmupFrac: 0.5})
	if rv.Net() == nil {
		t.Fatal("facade Raven never trained")
	}
	lru := simulate(t, tr, raven.MustNewPolicy("lru", raven.PolicyOptions{Capacity: 40}),
		raven.SimOptions{Capacity: 40, WarmupFrac: 0.5})
	if res.OHR <= lru.OHR {
		t.Errorf("Raven OHR %.4f should beat LRU %.4f post-warmup", res.OHR, lru.OHR)
	}
}

func TestFacadePolicyNames(t *testing.T) {
	names := raven.PolicyNames()
	if len(names) < 20 {
		t.Errorf("expected >=20 registered policies, got %d", len(names))
	}
	seen := map[string]bool{}
	for _, n := range names {
		seen[n] = true
	}
	for _, want := range []string{"lru", "lrb", "lhr", "belady", "raven", "raven-ohr"} {
		if !seen[want] {
			t.Errorf("missing policy %q", want)
		}
	}
}

func TestFacadeProductionPresets(t *testing.T) {
	tr := raven.ProductionTrace(raven.TwitterC17, 0.02, 1)
	if tr.Len() == 0 {
		t.Fatal("empty production trace")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeNetModels(t *testing.T) {
	if raven.CDNNetModel().ServiceTime(false, 1000) <= raven.CDNNetModel().ServiceTime(true, 1000) {
		t.Error("CDN miss must cost more than hit")
	}
	if raven.InMemoryNetModel().ServiceTime(false, 100) <= raven.InMemoryNetModel().ServiceTime(true, 100) {
		t.Error("in-memory miss must cost more than hit")
	}
}

func TestFacadeExperimentIDs(t *testing.T) {
	ids := raven.ExperimentIDs()
	if len(ids) != 30 {
		t.Errorf("expected 30 experiments, got %d", len(ids))
	}
}

func TestFacadeUnknownPolicy(t *testing.T) {
	if _, err := raven.NewPolicy("bogus", raven.PolicyOptions{}); err == nil {
		t.Error("unknown policy should error")
	}
}
