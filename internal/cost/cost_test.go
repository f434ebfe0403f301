package cost

import "testing"

func TestTable4Savings(t *testing.T) {
	rows := Table4(4, 2)
	if len(rows) != 3 {
		t.Fatalf("want 3 scenarios, got %d", len(rows))
	}
	for _, s := range rows {
		if s.RavenMonthly <= 0 || s.LRUMonthly <= 0 {
			t.Errorf("%s: non-positive cost", s.Name)
		}
		if s.Savings() <= 0 {
			t.Errorf("%s: with 2-4x capacity ratios Raven should be cheaper (savings %.2f)",
				s.Name, s.Savings())
		}
		if s.Savings() >= 1 {
			t.Errorf("%s: savings %.2f impossible", s.Name, s.Savings())
		}
	}
}

func TestRatioOneCanFavorLRU(t *testing.T) {
	// With no capacity advantage, Raven's GPU trainer makes it at
	// least as expensive.
	s := InMemoryCluster(1)
	if s.Savings() > 0 {
		t.Errorf("ratio 1 should not yield savings, got %.2f", s.Savings())
	}
}

func TestSavingsMonotoneInRatio(t *testing.T) {
	prev := -1.0
	for _, ratio := range []float64{1.5, 2, 3, 4} {
		s := CDNClusterSSD(ratio)
		if s.Savings() <= prev {
			t.Errorf("savings should grow with capacity ratio: %.3f at %.1fx", s.Savings(), ratio)
		}
		prev = s.Savings()
	}
}
