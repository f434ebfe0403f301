package nn

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Trainer runs fits off the request path: one long-lived goroutine
// takes the jobs Submit hands it, one at a time, in the order they
// came. The goroutine locks its OS thread and puts the thread in the
// kernel's idle scheduling class (SCHED_IDLE, Linux only; elsewhere the
// thread keeps its normal priority), so a fit runs only while no
// request thread wants the CPU.
//
// ravencached builds one per process and gives it to every shard's
// Raven (core.Config.Trainer); core keeps at most one job per shard
// in the queue or running. A fit itself is serial: it runs on whichever
// goroutine calls Fit, this one or a replay's.
//
// This file is the only place in internal/nn and internal/core allowed
// to launch goroutines, and the trainer's is its one: ravenlint's
// goroutine-outside-pool rule flags any `go` statement in those
// packages outside it, which keeps every source of concurrency on the
// training and eviction paths auditable from one screen of code.
type Trainer struct {
	mu    sync.Mutex
	queue []func()
	wake  chan struct{} // one buffered token: the queue may hold work
	stop  atomic.Bool   // set by Close; Fit reads it at epoch boundaries
}

// NewTrainer starts a trainer's goroutine, which waits for jobs until
// Close.
func NewTrainer() *Trainer {
	t := &Trainer{wake: make(chan struct{}, 1)}
	go t.run()
	return t
}

// Submit queues job to run on the trainer's goroutine. It reports
// false, and drops job, once Close has been called.
func (t *Trainer) Submit(job func()) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.stop.Load() {
		return false
	}
	t.queue = append(t.queue, job)
	select {
	case t.wake <- struct{}{}:
	default: // a token is already waiting
	}
	return true
}

// run is the trainer's goroutine. The thread is never unlocked, so it
// exits with the goroutine and its scheduling class never reaches a
// thread that serves requests.
func (t *Trainer) run() {
	runtime.LockOSThread()
	idleThread()
	for range t.wake {
		for job := t.next(); job != nil; job = t.next() {
			job()
		}
	}
}

// next pops the oldest queued job; nil when the queue is empty or the
// trainer is closed.
func (t *Trainer) next() func() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.stop.Load() || len(t.queue) == 0 {
		return nil
	}
	job := t.queue[0]
	t.queue[0] = nil
	t.queue = t.queue[1:]
	return job
}

// Fit is n.Fit for a job the trainer runs. Once Close has been called
// the fit stops at its next epoch boundary and Fit reports false: n
// then holds a partly trained network, which the caller discards. A
// nil Trainer is the inline schedule: Fit is n.Fit and reports true.
func (t *Trainer) Fit(n *Net, data []Sequence, tc TrainConfig) (TrainResult, bool) {
	if t == nil {
		return n.Fit(data, tc), true
	}
	tc.stop = &t.stop
	res := n.Fit(data, tc)
	return res, !t.stop.Load()
}

// Close stops the trainer without waiting for it, so that shutting a
// server down never waits on training: a running fit stops at its next
// epoch boundary and its result is discarded, queued jobs never run,
// and Submit refuses new ones. Closing twice is a no-op.
func (t *Trainer) Close() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.stop.Swap(true) {
		return
	}
	t.queue = nil
	close(t.wake)
}
