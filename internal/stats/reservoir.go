package stats

// Reservoir maintains a uniform random sample of a stream of float64
// values using Vitter's Algorithm R. It is used to keep bounded-size
// latency and eviction-time samples during long simulations.
type Reservoir struct {
	cap   int
	seen  int64
	items []float64
	rng   *RNG
}

// NewReservoir creates a reservoir holding at most capacity samples.
func NewReservoir(capacity int, seed int64) *Reservoir {
	if capacity <= 0 {
		panic("stats: Reservoir capacity must be positive")
	}
	return &Reservoir{cap: capacity, rng: NewRNG(seed)}
}

// Add offers v to the reservoir.
func (r *Reservoir) Add(v float64) {
	r.seen++
	if len(r.items) < r.cap {
		r.items = append(r.items, v)
		return
	}
	if j := r.rng.Int63n(r.seen); j < int64(r.cap) {
		r.items[j] = v
	}
}

// Summary summarizes the current sample.
func (r *Reservoir) Summary() Summary { return Summarize(r.items) }
