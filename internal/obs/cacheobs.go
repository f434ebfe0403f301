package obs

import "fmt"

// Canonical admission-reject reasons. They are defined here — rather
// than in the cache package, which imports obs — so the engine's typed
// decisions and the per-reason metric names always agree. Every reason
// the engine can emit maps to exactly one cache.admit_rejects.<reason>
// counter; anything else lands in "other" so the per-reason counters
// always sum to cache.rejections exactly.
const (
	// ReasonTooLarge: the object exceeds the cache's total capacity.
	ReasonTooLarge = "too_large"
	// ReasonNoVictim: the policy had nothing evictable to make room.
	ReasonNoVictim = "no_victim"
	// ReasonPolicy: the policy's own admission control (AdaptSize, LHR
	// admission) refused the object.
	ReasonPolicy = "policy"
	// ReasonSizeThreshold: a static size-threshold admitter (ThLRU)
	// refused an over-threshold object.
	ReasonSizeThreshold = "size_threshold"
	// ReasonDoorkeeper: first sighting within the doorkeeper period —
	// the one-hit-wonder filter absorbed the object.
	ReasonDoorkeeper = "doorkeeper"
	// ReasonFrequency: seen before, but the sketched frequency is still
	// below the admission threshold.
	ReasonFrequency = "frequency"
	// ReasonPredictedReuse: the MDN predicts the next arrival beyond
	// the object's expected cache lifetime.
	ReasonPredictedReuse = "predicted_reuse"
	// ReasonOther: any reason string outside the canonical set.
	ReasonOther = "other"
)

// CacheObs is the cache engine's observability surface: occupancy
// gauges plus the request/eviction counters operators watch. The
// engine updates it inline (a handful of atomic ops per request, no
// allocation) when one is attached via cache.SetObs; the server and
// simulator attach the same struct so live METRICS totals reconcile
// exactly with the engine's own cache.Stats accounting.
type CacheObs struct {
	// UsedBytes and Objects track live occupancy.
	UsedBytes Gauge
	Objects   Gauge
	// AdmitBytes is what the admission front's doorkeeper and count-min
	// sketch hold, set when they are sized and at every rebuild (0
	// without a frequency front).
	AdmitBytes Gauge

	Requests   Counter
	Hits       Counter
	Evictions  Counter
	Admissions Counter
	Rejections Counter
	Sets       Counter

	// Per-reason admission rejects. The reasons are a fixed enum of
	// counters (not a map) so the hot path stays a single atomic op and
	// snapshots register in a fixed order; they sum to Rejections
	// exactly because every reject bumps exactly one of them.
	RejTooLarge      Counter
	RejNoVictim      Counter
	RejPolicy        Counter
	RejSizeThreshold Counter
	RejDoorkeeper    Counter
	RejFrequency     Counter
	RejReuse         Counter
	RejOther         Counter
}

// AdmitReject bumps the total rejection counter plus the per-reason
// counter matching reason (canonical strings above; anything else
// counts as "other").
func (co *CacheObs) AdmitReject(reason string) {
	co.Rejections.Inc()
	switch reason {
	case ReasonTooLarge:
		co.RejTooLarge.Inc()
	case ReasonNoVictim:
		co.RejNoVictim.Inc()
	case ReasonPolicy:
		co.RejPolicy.Inc()
	case ReasonSizeThreshold:
		co.RejSizeThreshold.Inc()
	case ReasonDoorkeeper:
		co.RejDoorkeeper.Inc()
	case ReasonFrequency:
		co.RejFrequency.Inc()
	case ReasonPredictedReuse:
		co.RejReuse.Inc()
	default:
		co.RejOther.Inc()
	}
}

// Register adds every CacheObs metric to r under prefix (e.g.
// "cache"), in a fixed order so snapshots stay deterministic.
func (co *CacheObs) Register(r *Registry, prefix string) {
	r.adoptGauge(prefix+".used_bytes", &co.UsedBytes)
	r.adoptGauge(prefix+".objects", &co.Objects)
	r.adoptGauge(prefix+".admit_bytes", &co.AdmitBytes)
	r.adoptCounter(prefix+".requests", &co.Requests)
	r.adoptCounter(prefix+".hits", &co.Hits)
	r.adoptCounter(prefix+".evictions", &co.Evictions)
	r.adoptCounter(prefix+".admissions", &co.Admissions)
	r.adoptCounter(prefix+".rejections", &co.Rejections)
	r.adoptCounter(prefix+".sets", &co.Sets)
	r.adoptCounter(prefix+".admit_rejects."+ReasonTooLarge, &co.RejTooLarge)
	r.adoptCounter(prefix+".admit_rejects."+ReasonNoVictim, &co.RejNoVictim)
	r.adoptCounter(prefix+".admit_rejects."+ReasonPolicy, &co.RejPolicy)
	r.adoptCounter(prefix+".admit_rejects."+ReasonSizeThreshold, &co.RejSizeThreshold)
	r.adoptCounter(prefix+".admit_rejects."+ReasonDoorkeeper, &co.RejDoorkeeper)
	r.adoptCounter(prefix+".admit_rejects."+ReasonFrequency, &co.RejFrequency)
	r.adoptCounter(prefix+".admit_rejects."+ReasonPredictedReuse, &co.RejReuse)
	r.adoptCounter(prefix+".admit_rejects."+ReasonOther, &co.RejOther)
}

// ShardedCacheObs is the observability surface of a sharded cache
// engine: one CacheObs per shard (each shard's engine updates its own
// with a few atomic ops, no cross-shard contention) plus merged totals
// computed at snapshot time by summing the shard counters — so the
// merged "cache.*" names always equal the sum of the "cache.shard<N>.*"
// names in the same snapshot's terms, without any double accounting on
// the hot path.
type ShardedCacheObs struct {
	shards []*CacheObs
}

// Init allocates per-shard metric bundles for n shards. It must be
// called before Register or Shard.
func (so *ShardedCacheObs) Init(n int) {
	so.shards = make([]*CacheObs, n)
	for i := range so.shards {
		so.shards[i] = &CacheObs{}
	}
}

// Shards returns how many shard bundles Init allocated.
func (so *ShardedCacheObs) Shards() int { return len(so.shards) }

// Shard returns shard i's metric bundle, to be attached to that
// shard's engine (cache.Sharded.SetShardObs).
func (so *ShardedCacheObs) Shard(i int) *CacheObs { return so.shards[i] }

// sum folds one metric across shards at snapshot time.
func (so *ShardedCacheObs) sum(get func(*CacheObs) int64) func() int64 {
	return func() int64 {
		var t int64
		for _, s := range so.shards {
			t += get(s)
		}
		return t
	}
}

// Register adds the merged totals under prefix.* (same names a plain
// CacheObs registers, so dashboards and reconciliation tests work
// unchanged against either engine), then each shard's bundle under
// prefix.shard<N>.*, in shard order.
func (so *ShardedCacheObs) Register(r *Registry, prefix string) {
	r.RegisterFunc(prefix+".used_bytes", so.sum(func(c *CacheObs) int64 { return c.UsedBytes.Load() }))
	r.RegisterFunc(prefix+".objects", so.sum(func(c *CacheObs) int64 { return c.Objects.Load() }))
	r.RegisterFunc(prefix+".admit_bytes", so.sum(func(c *CacheObs) int64 { return c.AdmitBytes.Load() }))
	r.RegisterFunc(prefix+".requests", so.sum(func(c *CacheObs) int64 { return c.Requests.Load() }))
	r.RegisterFunc(prefix+".hits", so.sum(func(c *CacheObs) int64 { return c.Hits.Load() }))
	r.RegisterFunc(prefix+".evictions", so.sum(func(c *CacheObs) int64 { return c.Evictions.Load() }))
	r.RegisterFunc(prefix+".admissions", so.sum(func(c *CacheObs) int64 { return c.Admissions.Load() }))
	r.RegisterFunc(prefix+".rejections", so.sum(func(c *CacheObs) int64 { return c.Rejections.Load() }))
	r.RegisterFunc(prefix+".sets", so.sum(func(c *CacheObs) int64 { return c.Sets.Load() }))
	r.RegisterFunc(prefix+".admit_rejects."+ReasonTooLarge, so.sum(func(c *CacheObs) int64 { return c.RejTooLarge.Load() }))
	r.RegisterFunc(prefix+".admit_rejects."+ReasonNoVictim, so.sum(func(c *CacheObs) int64 { return c.RejNoVictim.Load() }))
	r.RegisterFunc(prefix+".admit_rejects."+ReasonPolicy, so.sum(func(c *CacheObs) int64 { return c.RejPolicy.Load() }))
	r.RegisterFunc(prefix+".admit_rejects."+ReasonSizeThreshold, so.sum(func(c *CacheObs) int64 { return c.RejSizeThreshold.Load() }))
	r.RegisterFunc(prefix+".admit_rejects."+ReasonDoorkeeper, so.sum(func(c *CacheObs) int64 { return c.RejDoorkeeper.Load() }))
	r.RegisterFunc(prefix+".admit_rejects."+ReasonFrequency, so.sum(func(c *CacheObs) int64 { return c.RejFrequency.Load() }))
	r.RegisterFunc(prefix+".admit_rejects."+ReasonPredictedReuse, so.sum(func(c *CacheObs) int64 { return c.RejReuse.Load() }))
	r.RegisterFunc(prefix+".admit_rejects."+ReasonOther, so.sum(func(c *CacheObs) int64 { return c.RejOther.Load() }))
	for i, s := range so.shards {
		s.Register(r, fmt.Sprintf("%s.shard%d", prefix, i))
	}
}
