package nn

import "sync"

// Pool is a fork-join worker pool for data-parallel loops over
// independent, index-addressed work items. It is the ONLY place in
// internal/nn and internal/core allowed to launch goroutines:
// ravenlint's goroutine-outside-pool rule flags any `go` statement in
// those packages outside this file, which keeps every source of
// concurrency on the training hot path auditable from one screen of
// code. Its one user is Fit: eviction decisions are serial.
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
