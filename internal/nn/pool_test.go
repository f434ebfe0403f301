package nn

import (
	"sync/atomic"
	"testing"
)

// TestParallelForDispatchAllocFree pins the persistent-worker design:
// after the first dispatch spawns the parked workers, every further
// ParallelFor must be allocation-free at any worker count — Fit
// dispatches once per minibatch and its allocation count must not grow
// with them (TestFitAllocFree).
func TestParallelForDispatchAllocFree(t *testing.T) {
	for _, w := range []int{1, 2, 4, 8} {
		p := NewPool(w)
		var sink atomic.Int64
		fn := func(worker, i int) { sink.Add(int64(i)) }
		p.ParallelFor(64, fn) // spawn round
		allocs := testing.AllocsPerRun(100, func() {
			p.ParallelFor(64, fn)
		})
		p.Close()
		if allocs != 0 {
			t.Errorf("Workers=%d: ParallelFor allocates %v/op after warmup, want 0", w, allocs)
		}
	}
}

// TestPoolCloseThenReuse: Close releases the parked goroutines but the
// pool stays usable — a later dispatch respawns workers and still
// covers every index exactly once.
func TestPoolCloseThenReuse(t *testing.T) {
	p := NewPool(4)
	var count atomic.Int64
	p.ParallelFor(32, func(worker, i int) { count.Add(1) })
	p.Close()
	p.Close() // idempotent
	p.ParallelFor(32, func(worker, i int) { count.Add(1) })
	p.Close()
	if got := count.Load(); got != 64 {
		t.Fatalf("covered %d indices across close/reuse, want 64", got)
	}
}

// TestPoolWidthGrowth: a dispatch narrower than the pool (n < workers)
// must not strand later wider dispatches — workers are spawned up to
// the width each round actually needs.
func TestPoolWidthGrowth(t *testing.T) {
	p := NewPool(8)
	defer p.Close()
	var count atomic.Int64
	p.ParallelFor(2, func(worker, i int) { count.Add(1) }) // width 2: spawns 1 worker
	p.ParallelFor(64, func(worker, i int) { count.Add(1) })
	if got := count.Load(); got != 66 {
		t.Fatalf("covered %d indices, want 66", got)
	}
}

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
