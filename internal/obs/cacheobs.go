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

// cacheMetric is one metric a CacheObs registers, under
// <prefix>.<suffix>: a gauge or a counter, whichever of g and c is set.
type cacheMetric struct {
	suffix string
	g      *Gauge
	c      *Counter
}

func (m cacheMetric) load() int64 {
	if m.g != nil {
		return m.g.Load()
	}
	return m.c.Load()
}

// metrics is the one list of CacheObs metric names, in registration
// order. Both Register methods walk it, so the plain and the merged
// sharded names are the same, in the same order.
func (co *CacheObs) metrics() [17]cacheMetric {
	return [...]cacheMetric{
		{suffix: "used_bytes", g: &co.UsedBytes},
		{suffix: "objects", g: &co.Objects},
		{suffix: "admit_bytes", g: &co.AdmitBytes},
		{suffix: "requests", c: &co.Requests},
		{suffix: "hits", c: &co.Hits},
		{suffix: "evictions", c: &co.Evictions},
		{suffix: "admissions", c: &co.Admissions},
		{suffix: "rejections", c: &co.Rejections},
		{suffix: "sets", c: &co.Sets},
		{suffix: "admit_rejects." + ReasonTooLarge, c: &co.RejTooLarge},
		{suffix: "admit_rejects." + ReasonNoVictim, c: &co.RejNoVictim},
		{suffix: "admit_rejects." + ReasonPolicy, c: &co.RejPolicy},
		{suffix: "admit_rejects." + ReasonSizeThreshold, c: &co.RejSizeThreshold},
		{suffix: "admit_rejects." + ReasonDoorkeeper, c: &co.RejDoorkeeper},
		{suffix: "admit_rejects." + ReasonFrequency, c: &co.RejFrequency},
		{suffix: "admit_rejects." + ReasonPredictedReuse, c: &co.RejReuse},
		{suffix: "admit_rejects." + ReasonOther, c: &co.RejOther},
	}
}

// Register adds every CacheObs metric to r under prefix (e.g.
// "cache"), in a fixed order so snapshots stay deterministic.
func (co *CacheObs) Register(r *Registry, prefix string) {
	for _, m := range co.metrics() {
		if m.g != nil {
			r.adoptGauge(prefix+"."+m.suffix, m.g)
		} else {
			r.adoptCounter(prefix+"."+m.suffix, m.c)
		}
	}
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

// Register adds the merged totals under prefix.* (same names a plain
// CacheObs registers, so dashboards and reconciliation tests work
// unchanged against either engine), then each shard's bundle under
// prefix.shard<N>.*, in shard order. A total is the sum over shards,
// folded at snapshot time.
func (so *ShardedCacheObs) Register(r *Registry, prefix string) {
	// A zero bundle supplies the suffixes; each total reads the shards'.
	for i, m := range new(CacheObs).metrics() {
		r.RegisterFunc(prefix+"."+m.suffix, func() int64 {
			var t int64
			for _, s := range so.shards {
				t += s.metrics()[i].load()
			}
			return t
		})
	}
	for i, s := range so.shards {
		s.Register(r, fmt.Sprintf("%s.shard%d", prefix, i))
	}
}
