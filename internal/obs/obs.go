// Package obs is the repository's observability layer: atomic
// counters, gauges, and bounded latency histograms, collected in a
// Registry that renders deterministic name/value snapshots for the
// server's METRICS wire command and periodic log lines.
//
// The paper's §5.4 system experiment (and the LHR framework it cites)
// treats overhead accounting as part of the result; this package makes
// the numbers observable without perturbing them. Everything on the
// hot path — Counter.Inc, Gauge.Set, Histogram.Observe/ObserveN — is a fixed
// number of atomic operations on preallocated memory: no locks, no
// allocations, no maps. Only snapshotting (METRICS, log lines)
// allocates, and that runs off the request path.
//
// Built on the standard library only (sync/atomic, math/bits).
package obs

import (
	"fmt"
	"math"
	"math/bits"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative for the value to stay monotonic).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous value (live connections, cache
// occupancy). Unlike a Counter it can move in both directions.
type Gauge struct {
	v atomic.Int64
}

// Set stores n.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adds n (may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// histBuckets is the fixed bucket count of a Histogram: bucket i holds
// non-negative values whose bit length is i, i.e. bucket 0 holds 0 and
// bucket i>0 holds [2^(i-1), 2^i). 64 buckets cover the whole int64
// range, so Observe never needs bounds checks beyond a clamp.
const histBuckets = 64

// Histogram accumulates non-negative int64 observations (typically
// nanoseconds) into power-of-two buckets. Memory is a fixed 64-entry
// array; Observe is three atomic ops and allocation-free. Quantiles
// are read from bucket upper edges clamped to the observed maximum,
// so a reported percentile is at most 2x the true one — accurate
// enough for latency monitoring, bounded by construction.
type Histogram struct {
	counts [histBuckets]atomic.Int64
	count  atomic.Int64
	sum    atomic.Int64
	max    atomic.Int64
}

// Observe records v. Negative values are clamped to zero.
func (h *Histogram) Observe(v int64) { h.ObserveN(v, 1) }

// ObserveN records v n times, for the same cost as one Observe: the
// server's burst path gives every op of a burst the burst's service
// time. n <= 0 records nothing. Negative values are clamped to zero.
func (h *Histogram) ObserveN(v int64, n int64) {
	if n <= 0 {
		return
	}
	if v < 0 {
		v = 0
	}
	h.counts[bits.Len64(uint64(v))&(histBuckets-1)].Add(n)
	h.count.Add(n)
	h.sum.Add(v * n)
	for {
		old := h.max.Load()
		if v <= old || h.max.CompareAndSwap(old, v) {
			return
		}
	}
}

// HistSnapshot is a point-in-time summary of a Histogram.
type HistSnapshot struct {
	Count int64
	Mean  int64
	P50   int64
	P90   int64
	P99   int64
	Max   int64
}

// Snapshot summarizes the histogram. Concurrent Observe calls may land
// between the atomic reads, so a snapshot taken under load is
// consistent to within the in-flight updates — fine for monitoring.
func (h *Histogram) Snapshot() HistSnapshot {
	var counts [histBuckets]int64
	var total int64
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	s := HistSnapshot{Count: total, Max: h.max.Load()}
	if total == 0 {
		return s
	}
	s.Mean = h.sum.Load() / total
	s.P50 = quantile(&counts, total, 0.50, s.Max)
	s.P90 = quantile(&counts, total, 0.90, s.Max)
	s.P99 = quantile(&counts, total, 0.99, s.Max)
	return s
}

// quantile returns the upper edge of the bucket containing the q-th
// quantile, clamped to the observed maximum.
func quantile(counts *[histBuckets]int64, total int64, q float64, max int64) int64 {
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range counts {
		cum += c
		if cum >= rank {
			upper := bucketUpper(i)
			if upper > max {
				upper = max
			}
			return upper
		}
	}
	return max
}

// bucketUpper returns the largest value bucket i can hold.
func bucketUpper(i int) int64 {
	if i == 0 {
		return 0
	}
	if i >= 63 {
		return math.MaxInt64
	}
	return int64(1)<<uint(i) - 1
}

// KV is one rendered metric sample.
type KV struct {
	Name  string
	Value int64
}

// metricKind discriminates Registry entries.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
	kindFunc
)

type entry struct {
	name string
	kind metricKind
	c    *Counter
	g    *Gauge
	h    *Histogram
	fn   func() int64
}

// Registry is an ordered collection of named metrics. Registration
// happens once at setup time (the returned pointers are then used
// directly on the hot path, no lookups); snapshots render entries in
// registration order, so wire output and log lines are deterministic
// for a given setup sequence.
type Registry struct {
	mu      sync.Mutex
	entries []entry
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// find returns the entry index for name, or -1.
func (r *Registry) find(name string) int {
	for i := range r.entries {
		if r.entries[i].name == name {
			return i
		}
	}
	return -1
}

// Counter returns the counter registered under name, creating it on
// first use. A name collision with a different metric kind returns a
// fresh unregistered counter rather than corrupting the registry.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if i := r.find(name); i >= 0 {
		if r.entries[i].kind == kindCounter {
			return r.entries[i].c
		}
		return &Counter{}
	}
	c := &Counter{}
	r.entries = append(r.entries, entry{name: name, kind: kindCounter, c: c})
	return c
}

// Gauge returns the gauge registered under name, creating it on first
// use (same collision semantics as Counter).
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if i := r.find(name); i >= 0 {
		if r.entries[i].kind == kindGauge {
			return r.entries[i].g
		}
		return &Gauge{}
	}
	g := &Gauge{}
	r.entries = append(r.entries, entry{name: name, kind: kindGauge, g: g})
	return g
}

// Histogram returns the histogram registered under name, creating it
// on first use (same collision semantics as Counter).
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if i := r.find(name); i >= 0 {
		if r.entries[i].kind == kindHistogram {
			return r.entries[i].h
		}
		return &Histogram{}
	}
	h := &Histogram{}
	r.entries = append(r.entries, entry{name: name, kind: kindHistogram, h: h})
	return h
}

// adoptCounter registers an externally allocated counter (used by
// composite metric structs like CacheObs). Existing names are left in
// place.
func (r *Registry) adoptCounter(name string, c *Counter) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.find(name) < 0 {
		r.entries = append(r.entries, entry{name: name, kind: kindCounter, c: c})
	}
}

func (r *Registry) adoptGauge(name string, g *Gauge) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.find(name) < 0 {
		r.entries = append(r.entries, entry{name: name, kind: kindGauge, g: g})
	}
}

// RegisterFunc registers a derived metric: fn is evaluated at snapshot
// time under the registry lock, so it must be fast and lock-free
// (typically a sum of atomic loads). The sharded cache uses this to
// serve merged per-shard totals that always equal the sum of the
// individual shard counters. Existing names are left in place.
func (r *Registry) RegisterFunc(name string, fn func() int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.find(name) < 0 {
		r.entries = append(r.entries, entry{name: name, kind: kindFunc, fn: fn})
	}
}

// Snapshot renders every metric as name/value pairs in registration
// order. Histograms expand into six derived samples:
// <name>.count, <name>.mean, <name>.p50, <name>.p90, <name>.p99,
// <name>.max.
func (r *Registry) Snapshot() []KV {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]KV, 0, len(r.entries)+8)
	for _, e := range r.entries {
		switch e.kind {
		case kindCounter:
			out = append(out, KV{e.name, e.c.Load()})
		case kindGauge:
			out = append(out, KV{e.name, e.g.Load()})
		case kindHistogram:
			s := e.h.Snapshot()
			out = append(out,
				KV{e.name + ".count", s.Count},
				KV{e.name + ".mean", s.Mean},
				KV{e.name + ".p50", s.P50},
				KV{e.name + ".p90", s.P90},
				KV{e.name + ".p99", s.P99},
				KV{e.name + ".max", s.Max})
		case kindFunc:
			out = append(out, KV{e.name, e.fn()})
		}
	}
	return out
}

// Line renders the snapshot as a single "name=value name=value ..."
// log line.
func (r *Registry) Line() string {
	var sb strings.Builder
	for i, kv := range r.Snapshot() {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%s=%d", kv.Name, kv.Value)
	}
	return sb.String()
}
