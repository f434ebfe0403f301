package marker

import (
	"testing"

	"raven/internal/cache"
	"raven/internal/trace"
)

func TestMarkerPhaseBehaviour(t *testing.T) {
	p := New(1)
	c := cache.New(2, p)
	c.Handle(cache.Request{Time: 1, Key: 1, Size: 1})
	c.Handle(cache.Request{Time: 2, Key: 2, Size: 1})
	// Both marked (just inserted). A miss forces a phase reset and a
	// random unmarked eviction.
	c.Handle(cache.Request{Time: 3, Key: 3, Size: 1})
	if c.Len() != 2 {
		t.Fatalf("cache should stay full, len %d", c.Len())
	}
	if !c.Contains(3) {
		t.Error("new object must be admitted")
	}
}

func TestEWMAPredictorLearnsPeriod(t *testing.T) {
	p := NewEWMAPredictor(0.5)
	for _, tm := range []int64{0, 10, 20, 30} {
		p.Observe(1, tm)
	}
	next := p.PredictNext(1, 30)
	if next < 35 || next > 45 {
		t.Errorf("predicted %v, want ~40", next)
	}
}

func TestEWMAPredictorColdIsFar(t *testing.T) {
	p := NewEWMAPredictor(0.5)
	p.Observe(1, 0)
	p.Observe(1, 10)
	cold := p.PredictNext(99, 10)
	hot := p.PredictNext(1, 10)
	if cold <= hot {
		t.Errorf("cold prediction %v should exceed hot %v", cold, hot)
	}
}

func TestPredictiveMarkerBeatsMarkerOnPeriodicTrace(t *testing.T) {
	// Strongly periodic per-object arrivals: the predictor's farthest
	// choice approximates Belady within the unmarked set.
	gen := func() *trace.Trace {
		tr := &trace.Trace{}
		for i := 0; i < 40000; i++ {
			// Object k appears every k+2 steps.
			for k := 0; k < 30; k++ {
				if i%(k+2) == 0 {
					tr.Reqs = append(tr.Reqs, trace.Request{Time: int64(len(tr.Reqs)), Key: trace.Key(k), Size: 1})
				}
			}
			if len(tr.Reqs) > 40000 {
				break
			}
		}
		return tr
	}
	run := func(p cache.Policy) float64 {
		c := cache.New(10, p)
		for _, r := range gen().Reqs {
			c.Handle(r)
		}
		return c.StatsSnapshot().OHR()
	}
	classic := run(New(2))
	pred := run(NewPredictive(2, NewEWMAPredictor(0.3)))
	if pred < classic {
		t.Errorf("PredictiveMarker OHR %.4f should be at least Marker %.4f", pred, classic)
	}
}

func TestPredictorRejectsBadAlpha(t *testing.T) {
	for _, a := range []float64{0, -1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("alpha %v should panic", a)
				}
			}()
			NewEWMAPredictor(a)
		}()
	}
}
