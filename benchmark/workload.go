package main

import (
	"fmt"
	"math"
	"time"

	"raven/internal/stats"
	"raven/internal/trace"
)

// pipeDepth is the in-flight window of the warm-up and the pipe phase.
const pipeDepth = 32

// spec is one workload: a trace.Production configuration owned by the
// benchmark (not the twitter* presets, whose BurstProb branching
// collapses the stream onto a few hundred objects), the share of SETs,
// the cache size and training window relative to the generated trace,
// and where the phases are cut.
//
// Everything that positions a fit is expressed in trace time: the
// training window is duration/windowDiv, and the phase cuts are
// fractions of the duration, so request order, window boundaries, fit
// count and hit ratios are a function of the seed alone.
type spec struct {
	name   string
	routed bool

	objects  int
	requests int

	zipf    float64
	sizes   trace.SizeModel
	oneHit  float64
	diurnal float64
	setFrac float64

	capFrac   float64 // cache capacity as a share of the catalogue's bytes
	windowDiv float64 // -window = trace duration / windowDiv
	warmEnd   float64 // warm-up covers [0, warmEnd) of the duration
	latEnd    float64 // lat covers [warmEnd, latEnd), pipe the rest

	// interval is I, the arrival interval the lat phase's callers are
	// assumed to keep; it feeds the coordinated-omission correction.
	interval time.Duration
}

// kvSizes is the narrow in-memory object size distribution (Fig. 8a).
var kvSizes = trace.SizeModel{Mu: math.Log(300), Sigma: 0.4, Min: 50, Max: 1400}

// Where the fits fall. cdn_miss_heavy trains every duration/5.5: its
// windows close at 1, 2, ... 5 windows, and the cuts at 1.5 and 3.5
// windows sit mid-window, so the warm-up holds one fit and the lat and
// pipe phases two each. The single fit of the other three closes at
// duration/1.9 = 52.6%, inside their 55% warm-up (on routed_kv each of
// the two nodes fits there, one after the other on the rig's one CPU).
//
// The sizes are what the driver's time cap leaves room for: a cold fit
// is 9-16 s whatever the trace holds (4000 objects, up to 30 epochs),
// so the measured phases get what is left of ~20 s a run.
var specs = []spec{
	{
		name:    "cdn_miss_heavy",
		objects: 30000, requests: 300000, zipf: 0.95,
		sizes:  trace.SizeModel{Mu: math.Log(34 << 10), Sigma: 2.0, Min: 100, Max: 50 << 20},
		oneHit: 0.15, diurnal: 0.6,
		capFrac: 0.05, windowDiv: 5.5, warmEnd: 1.5 / 5.5, latEnd: 3.5 / 5.5,
		interval: 100 * time.Microsecond,
	},
	{
		name:    "kv_hit_heavy",
		objects: 100000, requests: 1000000, zipf: 1.0,
		sizes: kvSizes, diurnal: 0.3, setFrac: 0.10,
		capFrac: 0.30, windowDiv: 1.9, warmEnd: 0.55, latEnd: 0.65,
		interval: 100 * time.Microsecond,
	},
	{
		name:    "kv_write_churn",
		objects: 120000, requests: 1200000, zipf: 0.8,
		sizes:  trace.SizeModel{Mu: math.Log(600), Sigma: 1.2, Min: 50, Max: 64 << 10},
		oneHit: 0.30, diurnal: 0.3, setFrac: 0.50,
		capFrac: 0.10, windowDiv: 1.9, warmEnd: 0.55, latEnd: 0.65,
		interval: 100 * time.Microsecond,
	},
	{
		name: "routed_kv", routed: true,
		objects: 8000, requests: 160000, zipf: 1.0,
		sizes: kvSizes, diurnal: 0.3, setFrac: 0.10,
		capFrac: 0.30, windowDiv: 1.9, warmEnd: 0.55, latEnd: 0.75,
		interval: 250 * time.Microsecond,
	},
}

func lookupSpec(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// miniature returns the spec at a four-hundredth of its size: what -smoke
// and the tests run. Catalogue and request count shrink together, so
// the fit positions stay where they are.
func (s spec) miniature() spec {
	s.objects = max(s.objects/400, 200)
	s.requests = max(s.requests/400, 2000)
	return s
}

// ops is the generated request stream in compact parallel arrays (17
// bytes per op), so the generator stays far below its 300 MB budget
// once the trace.Trace it was copied from is dropped.
type ops struct {
	key  []uint32
	size []uint32
	time []int64
	set  []bool

	warmEnd, latEnd int   // phase cuts as op indices
	capacity        int64 // -capacity, bytes
	window          int64 // -window, trace ticks
	hash            uint64
	genSeconds      float64 // time spent inside trace.Production
}

func (o *ops) len() int { return len(o.key) }

// splitmix64 is the benchmark's own generator for SET selection: it
// owes nothing to the repo's RNG, so a change there cannot move which
// ops are writes.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// catalogueSeed draws every workload's object sizes. The catalogue -
// which object is how popular (its key is its Zipf rank) and how large -
// is the workload's; --seed decides only when each object is asked for
// and which asks are SETs. With sizes drawn per seed, a handful of huge
// popular objects decide bhr, the capacity and peak_rss_mb, and they
// swing 6-20% from seed to seed for no reason a change could answer for.
const catalogueSeed = 1

// generate builds the op stream of s from seed.
func generate(s spec, seed int64) (*ops, error) {
	t0 := time.Now()
	tr := trace.Production(trace.ProductionConfig{
		Name: s.name, Objects: s.objects, Requests: s.requests,
		ZipfAlpha: s.zipf, Sizes: s.sizes,
		DiurnalAmplitude: s.diurnal, Days: 2,
		OneHitFraction: s.oneHit,
		Seed:           seed,
	})
	gen := time.Since(t0).Seconds()
	n := tr.Len()
	// Keys are dense: the objects first, then one per one-hit wonder.
	catalogue := make([]uint32, s.objects+int(float64(s.requests)*s.oneHit))
	var catalogueBytes int64
	for g, k := stats.NewRNG(catalogueSeed), 0; k < len(catalogue); k++ {
		catalogue[k] = uint32(s.sizes.Draw(g))
		catalogueBytes += int64(catalogue[k])
	}
	if n < 100 {
		return nil, fmt.Errorf("%s: generator produced %d requests", s.name, n)
	}
	o := &ops{
		key: make([]uint32, n), size: make([]uint32, n),
		time: make([]int64, n), set: make([]bool, n),
		genSeconds: gen,
	}
	first, dur := tr.Reqs[0].Time, tr.Duration()
	warmT := first + int64(s.warmEnd*float64(dur))
	latT := first + int64(s.latEnd*float64(dur))
	rng := splitmix64(uint64(seed)*0x2545f4914f6cdd1d + 1)
	setBelow := uint64(s.setFrac * (1 << 32))
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for b := 0; b < 8; b++ {
			h ^= v >> (8 * b) & 0xff
			h *= 1099511628211
		}
	}
	for i, r := range tr.Reqs {
		if uint64(r.Key) >= uint64(len(catalogue)) {
			return nil, fmt.Errorf("%s: request %d has key %d, outside the catalogue of %d", s.name, i, r.Key, len(catalogue))
		}
		o.key[i], o.size[i], o.time[i] = uint32(r.Key), catalogue[r.Key], r.Time
		o.set[i] = rng.next()>>32 < setBelow
		if r.Time < warmT {
			o.warmEnd = i + 1
		}
		if r.Time < latT {
			o.latEnd = i + 1
		}
		mix(uint64(r.Key))
		mix(uint64(o.size[i]))
		mix(uint64(r.Time))
		if o.set[i] {
			mix(1)
		}
	}
	o.hash = h
	o.capacity = max(int64(s.capFrac*float64(catalogueBytes)), 1<<12)
	o.window = max(int64(float64(dur)/s.windowDiv), 1)
	if o.warmEnd <= 0 || o.latEnd <= o.warmEnd || o.latEnd >= n {
		return nil, fmt.Errorf("%s: empty phase (cuts %d, %d of %d ops)", s.name, o.warmEnd, o.latEnd, n)
	}
	return o, nil
}
