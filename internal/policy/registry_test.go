package policy

import (
	"testing"

	"raven/internal/cache"
	"raven/internal/trace"
)

func TestAllRegisteredPoliciesRun(t *testing.T) {
	tr := trace.Synthetic(trace.SynthConfig{
		Objects: 100, Requests: 5000, Interarrival: trace.Poisson,
		VariableSizes: true, Seed: 1,
	})
	tr.AnnotateNext()
	capacity := tr.UniqueBytes() / 10
	for _, name := range Names() {
		p, err := New(name, Options{
			Capacity:    capacity,
			TrainWindow: tr.Duration() / 4,
			Seed:        7,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		c := cache.New(capacity, p)
		for _, r := range tr.Reqs {
			c.Handle(r)
		}
		st := c.StatsSnapshot()
		if st.Requests != int64(tr.Len()) {
			t.Errorf("%s: processed %d of %d requests", name, st.Requests, tr.Len())
		}
		if c.Used() > c.Capacity() {
			t.Errorf("%s: capacity violated (%d > %d)", name, c.Used(), c.Capacity())
		}
	}
}

func TestUnknownPolicyError(t *testing.T) {
	if _, err := New("nope", Options{}); err == nil {
		t.Error("unknown policy should error")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew should panic for unknown names")
		}
	}()
	MustNew("nope", Options{})
}

func TestBaselines14AllRegistered(t *testing.T) {
	if len(Baselines14) != 14 {
		t.Fatalf("Baselines14 has %d entries", len(Baselines14))
	}
	for _, name := range Baselines14 {
		if _, err := New(name, Options{Capacity: 1000, Seed: 1}); err != nil {
			t.Errorf("baseline %s: %v", name, err)
		}
	}
}

func TestSizeThresholdAdmission(t *testing.T) {
	p := MustNew("thlru", Options{Capacity: 1000, Seed: 1})
	adm, ok := p.(cache.Admitter)
	if !ok {
		t.Fatal("thlru must implement Admitter")
	}
	small := cache.Request{Key: 1, Size: 10}
	big := cache.Request{Key: 2, Size: 500}
	if d := adm.Admit(small); !d.Admit {
		t.Errorf("small object should be admitted, got reject %q", d.Reason)
	}
	if d := adm.Admit(big); d.Admit { // threshold = capacity/50 = 20
		t.Error("big object should be rejected")
	} else if d.Reason != cache.RejectSizeThreshold {
		t.Errorf("reject reason %q, want %q", d.Reason, cache.RejectSizeThreshold)
	}
	if p.Name() != "thlru" {
		t.Errorf("name %q", p.Name())
	}
}

func TestRavenOptionsPropagate(t *testing.T) {
	p := MustNew("raven", Options{Capacity: 5000, TrainWindow: 1234, Seed: 3})
	if p.Name() != "raven" {
		t.Errorf("name %q", p.Name())
	}
	po := MustNew("raven-ohr", Options{Capacity: 5000, TrainWindow: 1234, Seed: 3})
	if po.Name() != "raven-ohr" {
		t.Errorf("name %q", po.Name())
	}
}
