package sim

import (
	"sort"

	"raven/internal/trace"
)

// Oracle indexes a trace's per-object arrival times so the simulator
// can ask "when is key k's next request after time t?" at any point —
// the ground truth behind rank-order errors (Fig. 3) and any offline
// analysis.
type Oracle struct {
	arrivals map[trace.Key][]int64
}

// NewOracle builds the index in one pass over the trace.
func NewOracle(t *trace.Trace) *Oracle {
	o := &Oracle{arrivals: make(map[trace.Key][]int64, 1024)}
	for _, r := range t.Reqs {
		o.arrivals[r.Key] = append(o.arrivals[r.Key], r.Time)
	}
	return o
}

// NextAfter returns the first arrival of key strictly after t, or
// trace.NoNext if none.
func (o *Oracle) NextAfter(key trace.Key, t int64) int64 {
	ts := o.arrivals[key]
	i := sort.Search(len(ts), func(i int) bool { return ts[i] > t })
	if i == len(ts) {
		return trace.NoNext
	}
	return ts[i]
}
