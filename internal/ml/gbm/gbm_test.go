package gbm

import (
	"math"
	"testing"

	"raven/internal/stats"
)

func TestConstantTarget(t *testing.T) {
	X := make([][]float64, 100)
	y := make([]float64, 100)
	for i := range X {
		X[i] = []float64{float64(i), float64(i % 7)}
		y[i] = 3.5
	}
	m := Train(X, y, Config{Trees: 5, Seed: 1})
	for i := range X {
		if math.Abs(m.Predict(X[i])-3.5) > 1e-9 {
			t.Fatalf("constant target mispredicted: %v", m.Predict(X[i]))
		}
	}
}

func TestLearnsStepFunction(t *testing.T) {
	g := stats.NewRNG(2)
	n := 2000
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		x := g.Float64() * 10
		X[i] = []float64{x, g.Float64()}
		if x > 5 {
			y[i] = 10
		} else {
			y[i] = -10
		}
	}
	m := Train(X, y, Config{Trees: 40, MaxDepth: 3, Seed: 3})
	if mse := m.MSE(X, y); mse > 2 {
		t.Errorf("step function MSE %v too high", mse)
	}
	if m.Predict([]float64{8, 0.5}) < 5 {
		t.Error("high side mispredicted")
	}
	if m.Predict([]float64{2, 0.5}) > -5 {
		t.Error("low side mispredicted")
	}
}

func TestLearnsAdditiveFunction(t *testing.T) {
	g := stats.NewRNG(4)
	n := 4000
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		a, b := g.Float64()*4, g.Float64()*4
		X[i] = []float64{a, b, g.Float64()}
		y[i] = 2*a - 3*b
	}
	m := Train(X, y, Config{Trees: 120, MaxDepth: 4, LearningRate: 0.15, Seed: 5})
	var baseVar float64
	mean := stats.Mean(y)
	for _, v := range y {
		baseVar += (v - mean) * (v - mean)
	}
	baseVar /= float64(n)
	if mse := m.MSE(X, y); mse > baseVar*0.1 {
		t.Errorf("additive MSE %v vs variance %v: model barely learned", mse, baseVar)
	}
}

func TestIrrelevantFeatureIgnored(t *testing.T) {
	g := stats.NewRNG(6)
	n := 2000
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		x := g.Float64()
		X[i] = []float64{g.Float64() /* noise */, x}
		y[i] = 5 * x
	}
	m := Train(X, y, Config{Trees: 50, MaxDepth: 3, Seed: 7})
	var splits [2]int
	for _, tr := range m.trees {
		for _, n := range tr.nodes {
			if n.left >= 0 {
				splits[n.feature]++
			}
		}
	}
	if splits[1] < splits[0] {
		t.Errorf("informative feature has %d splits, fewer than noise's %d", splits[1], splits[0])
	}
}

func TestMSEDecreasesWithTrees(t *testing.T) {
	g := stats.NewRNG(8)
	n := 1000
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		x := g.Float64() * 6
		X[i] = []float64{x}
		y[i] = math.Sin(x)
	}
	small := Train(X, y, Config{Trees: 3, Seed: 9})
	big := Train(X, y, Config{Trees: 60, Seed: 9})
	if big.MSE(X, y) >= small.MSE(X, y) {
		t.Errorf("more trees should fit better: %v vs %v", big.MSE(X, y), small.MSE(X, y))
	}
}

func TestTrainPanicsOnBadInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on empty input")
		}
	}()
	Train(nil, nil, Config{})
}

func TestDeterministicTraining(t *testing.T) {
	g := stats.NewRNG(10)
	n := 500
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		X[i] = []float64{g.Float64(), g.Float64()}
		y[i] = X[i][0] + X[i][1]
	}
	a := Train(X, y, Config{Trees: 20, Seed: 11})
	b := Train(X, y, Config{Trees: 20, Seed: 11})
	for i := 0; i < 50; i++ {
		if a.Predict(X[i]) != b.Predict(X[i]) {
			t.Fatal("same seed should produce identical models")
		}
	}
}

// MSE returns the mean squared error of the model on (X, y).
func (m *Model) MSE(X [][]float64, y []float64) float64 {
	if len(X) == 0 {
		return 0
	}
	s := 0.0
	for i := range X {
		d := m.Predict(X[i]) - y[i]
		s += d * d
	}
	return s / float64(len(X))
}
