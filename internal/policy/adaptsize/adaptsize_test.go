package adaptsize

import (
	"testing"

	"raven/internal/cache"
)

func TestAdmissionProbabilityShape(t *testing.T) {
	p := New(10000, 1)
	small := 0
	big := 0
	for i := 0; i < 1000; i++ {
		if p.Admit(cache.Request{Key: cache.Key(i), Size: 1}).Admit {
			small++
		}
		if p.Admit(cache.Request{Key: cache.Key(i), Size: 100000}).Admit {
			big++
		}
	}
	if small < 950 {
		t.Errorf("tiny objects admitted only %d/1000 times", small)
	}
	if big > 50 {
		t.Errorf("huge objects admitted %d/1000 times", big)
	}
}

func TestTuningAdjustsC(t *testing.T) {
	p := New(1000, 2)
	c0 := p.C()
	// Drive enough requests across tuning windows to force movement.
	cch := cache.New(1000, p)
	for i := 0; i < 3*tuneWindow; i++ {
		cch.Handle(cache.Request{Time: int64(i), Key: cache.Key(i % 100), Size: 5})
	}
	if p.C() == c0 {
		t.Error("hill climbing never moved the admission parameter")
	}
	if p.C() < 1 {
		t.Errorf("c fell below its floor: %v", p.C())
	}
}

func TestNameAndLRUDelegation(t *testing.T) {
	p := New(10000, 3) // c = 100, so size-1 admissions are ~certain
	if p.Name() != "adaptsize" {
		t.Errorf("name %q", p.Name())
	}
	c := cache.New(10000, p)
	c.Handle(cache.Request{Time: 1, Key: 1, Size: 1})
	c.Handle(cache.Request{Time: 2, Key: 1, Size: 1})
	if st := c.StatsSnapshot(); st.Hits != 1 {
		t.Errorf("delegated LRU should produce a hit: %+v", st)
	}
}

// C returns the current admission size parameter (for tests).
func (p *AdaptSize) C() float64 { return p.c }
