package sim

import (
	"testing"

	"raven/internal/core"
	"raven/internal/nn"
	"raven/internal/policy"
	"raven/internal/trace"
)

// TestRavenSurvivesTrainingDivergence is the end-to-end robustness
// drill (ISSUE 4 acceptance): a Raven whose first training windows
// diverge via injected faults must (a) stay within 5% of plain LRU's
// object hit ratio — the degraded policy IS LRU plus model overhead —
// (b) record at least one rollback, and (c) walk the full
// Healthy→Fallback→Healthy cycle once the injection stops.
func TestRavenSurvivesTrainingDivergence(t *testing.T) {
	if testing.Short() {
		t.Skip("training test skipped in -short mode")
	}
	tr := trace.Synthetic(trace.SynthConfig{
		Objects: 300, Requests: 18000, Interarrival: trace.Poisson, Seed: 9,
	})
	const capacity = 60
	opts := Options{Capacity: capacity, WarmupFrac: 0.1, Seed: 1}

	lru := runOne(t, tr, policy.MustNew("lru", policy.Options{Capacity: capacity}), opts)

	cfg := &core.Config{
		TrainWindow:       tr.Duration() / 6,
		MaxTrainObjects:   300,
		Net:               nn.Config{Hidden: 6, MLPHidden: 8, K: 3},
		Train:             nn.TrainConfig{MaxEpochs: 4, Patience: 2, Faults: &nn.TrainFaults{NaNLossEpoch: 1}},
		ResidualSamples:   20,
		Seed:              7,
		TrainFaultWindows: 2,
	}
	p := policy.MustNew("raven", policy.Options{Capacity: capacity, Raven: cfg})
	r := p.(*core.Raven)
	res := runOne(t, tr, p, opts)

	if res.OHR < lru.OHR-0.05 {
		t.Errorf("faulted Raven OHR %.4f below LRU %.4f - 0.05: degradation is not graceful",
			res.OHR, lru.OHR)
	}

	rollbacks := 0
	for _, rec := range r.TrainStats {
		if rec.RolledBack {
			rollbacks++
		}
	}
	if rollbacks == 0 {
		t.Error("no training window was rolled back despite injected divergence")
	}
	if r.Health() != core.Healthy {
		t.Errorf("final health %v, want healthy after faults stopped", r.Health())
	}
	sawFallback, recovered := false, false
	for _, h := range r.HealthLog {
		if h.To == core.Fallback {
			sawFallback = true
		}
		if sawFallback && h.To == core.Healthy {
			recovered = true
		}
	}
	if !sawFallback || !recovered {
		t.Errorf("HealthLog missing the Fallback->Healthy cycle: %+v", r.HealthLog)
	}
}

// TestRavenFaultedRunIsDeterministic: the fault drill itself must be
// reproducible — two identical faulted runs produce identical hit
// ratios and health logs.
func TestRavenFaultedRunIsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("training test skipped in -short mode")
	}
	tr := trace.Synthetic(trace.SynthConfig{
		Objects: 200, Requests: 9000, Interarrival: trace.Poisson, Seed: 3,
	})
	const capacity = 40
	run := func() (*Result, *core.Raven) {
		cfg := &core.Config{
			TrainWindow:       tr.Duration() / 4,
			MaxTrainObjects:   200,
			Net:               nn.Config{Hidden: 6, MLPHidden: 8, K: 3},
			Train:             nn.TrainConfig{MaxEpochs: 3, Patience: 2, Faults: &nn.TrainFaults{NaNLossEpoch: 1}},
			ResidualSamples:   20,
			Seed:              7,
			TrainFaultWindows: 1,
		}
		p := policy.MustNew("raven", policy.Options{Capacity: capacity, Raven: cfg})
		return runOne(t, tr, p, Options{Capacity: capacity, Seed: 1}), p.(*core.Raven)
	}
	base, baseR := run()
	res, r := run()
	if res.OHR != base.OHR || res.BHR != base.BHR { // bit-exact by the determinism contract
		t.Errorf("second run's OHR/BHR %.6f/%.6f differ from the first's %.6f/%.6f",
			res.OHR, res.BHR, base.OHR, base.BHR)
	}
	if len(r.HealthLog) != len(baseR.HealthLog) {
		t.Fatalf("second run's health log length %d != first's %d", len(r.HealthLog), len(baseR.HealthLog))
	}
	for i := range r.HealthLog {
		if r.HealthLog[i].From != baseR.HealthLog[i].From ||
			r.HealthLog[i].To != baseR.HealthLog[i].To ||
			r.HealthLog[i].At != baseR.HealthLog[i].At {
			t.Errorf("health transition %d differs: %+v vs %+v", i, r.HealthLog[i], baseR.HealthLog[i])
		}
	}
}
