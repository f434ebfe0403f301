package nn

import "testing"

// TestClosedTrainerStopsFit: Close, called while a fit with no epoch
// limit runs, stops it at an epoch boundary, and Fit reports its result
// as not to be kept; a Submit after Close is refused.
func TestClosedTrainerStopsFit(t *testing.T) {
	tr := NewTrainer()
	started, stopped := make(chan struct{}), make(chan bool)
	net := NewNet(Config{Hidden: 4, MLPHidden: 6, K: 2})
	data := make([]Sequence, 40)
	for i := range data {
		data[i] = Sequence{Taus: []float64{1, 2, 3, 4}, Size: 1, Survival: 2}
	}
	tr.Submit(func() {
		close(started)
		_, ok := tr.Fit(net, data, TrainConfig{MaxEpochs: 1 << 30, Patience: 1 << 30})
		stopped <- ok
	})
	<-started
	tr.Close()
	if <-stopped {
		t.Fatal("a fit running at Close reported its result as kept")
	}
	if tr.Submit(func() {}) {
		t.Error("Submit after Close accepted a job")
	}
}
