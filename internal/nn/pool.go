package nn

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a fork-join worker pool for data-parallel loops over
// independent, index-addressed work items. This file is the ONLY place
// in internal/nn and internal/core allowed to launch goroutines — the
// pool's workers and the Trainer's one goroutine below: ravenlint's
// goroutine-outside-pool rule flags any `go` statement in those
// packages outside it, which keeps every source of concurrency on the
// training hot path auditable from one screen of code. The pool's one
// user is Fit: eviction decisions are serial.
//
// Determinism contract (DESIGN.md "Parallel execution & determinism"):
// ParallelFor partitions indices into contiguous chunks purely by
// (n, workers); fn(worker, i) must write only to slots addressed by i
// (plus worker-private scratch addressed by worker). Reductions over
// those slots are the caller's job and must run serially in index
// order. Under that discipline every result is bit-identical for any
// worker count, including 1 — parallelism changes who computes, never
// what is computed or the order it is combined in.
//
// Workers are persistent: the first parallel dispatch spawns parked
// goroutines (one per extra worker) that block on a wake channel
// between rounds, so steady-state dispatch allocates nothing — the
// old per-call `go func` fan-out cost 2(w-1)+1 heap allocations per
// ParallelFor, which a whole Fit's fixed allocation count cannot
// afford. A pool used for a bounded piece of work (one Fit call)
// should Close() to release the goroutines.
//
// A Pool is NOT safe for concurrent dispatch: one goroutine at a time
// may call ParallelFor/Close (matching how Fit uses it).
type Pool struct {
	workers int

	// Persistent fork-join state. Dispatch publishes fn/n/w, wakes
	// workers 1..w-1 through their buffered channels (the channel send
	// gives the happens-before edge for the published fields), runs
	// chunk 0 inline, and joins on wg.
	fn   func(worker, i int)
	n, w int
	wake []chan struct{}
	wg   sync.WaitGroup
}

// NewPool returns a pool that runs loops on up to workers goroutines.
// Values below 1 mean serial execution. The count is not clamped to
// GOMAXPROCS: results never depend on it, and oversubscription is
// deliberately allowed so the race detector exercises real
// interleavings even on single-core machines. runtime.GOMAXPROCS(0)
// is the hardware optimum.
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	return &Pool{workers: workers}
}

// Workers returns the pool's worker count.
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return p.workers
}

// ParallelFor invokes fn(worker, i) for every i in [0, n), partitioned
// into at most Workers() contiguous chunks. Worker 0 is the calling
// goroutine (no goroutines at all when the effective worker count is
// 1, so serial pools add zero overhead and zero allocations); workers
// 1..w-1 are persistent parked goroutines woken per call and joined
// before ParallelFor returns.
//
// fn must treat `worker` as its scratch-buffer index and `i` as its
// output-slot index; it must not write any state shared across
// distinct workers.
func (p *Pool) ParallelFor(n int, fn func(worker, i int)) {
	if n <= 0 {
		return
	}
	w := p.Workers()
	if w > n {
		w = n
	}
	if w == 1 {
		// Kept free of the forking code below so nothing in this path
		// is captured by a goroutine closure: the serial case must not
		// heap-allocate (the eviction path asserts zero allocs/op).
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	p.forkJoin(n, w, fn)
}

// forkJoin is ParallelFor's parallel branch: it publishes the round
// (fn, n, w), wakes parked workers 1..w-1, runs worker 0's chunk on
// the calling goroutine, and joins. Chunk bounds are computed by each
// worker from (k, n, w) with the same k*n/w arithmetic the per-call
// fan-out used, so results stay bit-identical to the old code — and
// to every other worker count. Steady-state dispatch is allocation-
// free; only the first round at a given width spawns goroutines.
func (p *Pool) forkJoin(n, w int, fn func(worker, i int)) {
	p.spawn(w - 1)
	p.fn, p.n, p.w = fn, n, w
	p.wg.Add(w - 1)
	for k := 1; k < w; k++ {
		p.wake[k-1] <- struct{}{}
	}
	for i := 0; i < n/w; i++ {
		fn(0, i)
	}
	p.wg.Wait()
	p.fn = nil // drop the closure reference between rounds
}

// spawn ensures at least extra parked worker goroutines exist. Each
// worker owns its wake channel directly (not through p.wake, which
// later spawns may reallocate).
func (p *Pool) spawn(extra int) {
	for len(p.wake) < extra {
		// One-time spawn at first parallel dispatch; parked workers make every later dispatch allocation-free.
		ch := make(chan struct{}, 1)
		p.wake = append(p.wake, ch)
		go p.work(len(p.wake), ch)
	}
}

// work is the persistent worker loop for worker index k: wake, run
// the k-th contiguous chunk of the published round, signal done, park.
// A closed wake channel retires the worker.
func (p *Pool) work(k int, wake chan struct{}) {
	for range wake {
		for i := k * p.n / p.w; i < (k+1)*p.n/p.w; i++ {
			p.fn(k, i)
		}
		p.wg.Done()
	}
}

// Close retires the pool's parked worker goroutines. The pool remains
// usable — a later ParallelFor simply respawns workers — so Close is
// a resource release, not a terminal state; closing an idle or
// never-dispatched pool (or closing twice) is a no-op. Callers that
// create a pool per bounded job (Fit does) should defer Close so
// goroutines do not accumulate across jobs.
func (p *Pool) Close() {
	if p == nil {
		return
	}
	for _, ch := range p.wake {
		close(ch)
	}
	p.wake = nil
}

// Trainer runs fits off the request path: one long-lived goroutine
// takes the jobs Submit hands it, one at a time, in the order they
// came. The goroutine locks its OS thread and puts the thread in the
// kernel's idle scheduling class (SCHED_IDLE, Linux only; elsewhere the
// thread keeps its normal priority), so a fit runs only while no
// request thread wants the CPU.
//
// ravencached builds one per process and gives it to every shard's
// Raven (core.Config.Trainer); core keeps at most one job per shard
// in the queue or running.
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
