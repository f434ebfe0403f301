// Package trace defines cache request traces and the synthetic
// workload generators and analyzers used throughout the repository.
//
// A trace is a time-ordered sequence of object requests. Generators
// reproduce the workload families of the Raven paper (CoNEXT '22):
// superpositions of per-object renewal processes with Poisson, Uniform
// and Pareto interarrivals and Zipf popularity (§3.5 / Appendix C),
// production-like CDN and in-memory workloads standing in for the
// Wikipedia/Wikimedia and Twitter traces (§5.1.1), and a Citi-Bike-like
// station stream (Appendix B).
package trace

import (
	"fmt"
	"math"
)

// Key identifies a cached object.
type Key uint64

// NoNext marks a request whose object is never requested again.
const NoNext int64 = math.MaxInt64

// Request is a single object request. Time is a virtual timestamp in
// ticks (generators use 1 tick = 1 simulated millisecond). Next is
// oracle information — the timestamp of the next request for the same
// key, or NoNext — filled in by Trace.AnnotateNext. Online policies
// must never read Next; it exists for Belady, PFOO and rank-order
// error measurement only.
type Request struct {
	Time int64
	Key  Key
	Size int64
	Next int64
}

// Trace is an in-memory, time-ordered request sequence.
type Trace struct {
	Name string
	Reqs []Request

	annotated bool
}

// Len returns the number of requests.
func (t *Trace) Len() int { return len(t.Reqs) }

// Duration returns lastTime - firstTime, or 0 for short traces.
func (t *Trace) Duration() int64 {
	if len(t.Reqs) < 2 {
		return 0
	}
	return t.Reqs[len(t.Reqs)-1].Time - t.Reqs[0].Time
}

// UniqueObjects returns the number of distinct keys.
func (t *Trace) UniqueObjects() int {
	seen := make(map[Key]struct{}, len(t.Reqs)/4+1)
	for _, r := range t.Reqs {
		seen[r.Key] = struct{}{}
	}
	return len(seen)
}

// UniqueBytes returns the total size of distinct objects, using each
// object's last observed size.
func (t *Trace) UniqueBytes() int64 {
	sizes := make(map[Key]int64, len(t.Reqs)/4+1)
	for _, r := range t.Reqs {
		sizes[r.Key] = r.Size
	}
	var total int64
	for _, s := range sizes {
		total += s
	}
	return total
}

// TotalBytes returns the sum of request sizes.
func (t *Trace) TotalBytes() int64 {
	var total int64
	for _, r := range t.Reqs {
		total += r.Size
	}
	return total
}

// Annotated reports whether AnnotateNext has run.
func (t *Trace) Annotated() bool { return t.annotated }

// AnnotateNext fills every request's Next field with the timestamp of
// the following request for the same key (NoNext if none) in a single
// backward pass. It is idempotent.
func (t *Trace) AnnotateNext() {
	next := make(map[Key]int64, 1024)
	for i := len(t.Reqs) - 1; i >= 0; i-- {
		r := &t.Reqs[i]
		if nt, ok := next[r.Key]; ok {
			r.Next = nt
		} else {
			r.Next = NoNext
		}
		next[r.Key] = r.Time
	}
	t.annotated = true
}

// Slice returns a shallow sub-trace covering requests [lo, hi).
func (t *Trace) Slice(lo, hi int) *Trace {
	if lo < 0 {
		lo = 0
	}
	if hi > len(t.Reqs) {
		hi = len(t.Reqs)
	}
	return &Trace{Name: t.Name, Reqs: t.Reqs[lo:hi], annotated: t.annotated}
}

// Validate checks trace invariants: non-decreasing timestamps,
// positive sizes, and a consistent size per key. It returns the first
// violation found, or nil.
func (t *Trace) Validate() error {
	sizes := make(map[Key]int64)
	var prev int64 = math.MinInt64
	for i, r := range t.Reqs {
		if r.Time < prev {
			return fmt.Errorf("trace %q: request %d time %d precedes %d", t.Name, i, r.Time, prev)
		}
		prev = r.Time
		if r.Size <= 0 {
			return fmt.Errorf("trace %q: request %d has non-positive size %d", t.Name, i, r.Size)
		}
		if s, ok := sizes[r.Key]; ok && s != r.Size {
			return fmt.Errorf("trace %q: key %d size changed %d -> %d at request %d", t.Name, r.Key, s, r.Size, i)
		}
		sizes[r.Key] = r.Size
	}
	return nil
}
