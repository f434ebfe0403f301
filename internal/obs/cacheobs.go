package obs

import "fmt"

// Reason is why the engine refused to admit an object. The set is
// closed: every reason has one cache.admit_rejects.<name> counter, so
// the per-reason counters sum to cache.rejections exactly. It is
// defined here — rather than in the cache package, which imports obs —
// so the engine's decisions and the metric names cannot drift apart.
// The zero Reason is an accepted decision's.
type Reason uint8

const (
	// ReasonTooLarge: the object exceeds the cache's total capacity.
	ReasonTooLarge Reason = iota + 1
	// ReasonNoVictim: the policy had nothing evictable to make room.
	ReasonNoVictim
	// ReasonPolicy: the policy's own admission control (AdaptSize, LHR
	// admission) refused the object.
	ReasonPolicy
	// ReasonSizeThreshold: a static size-threshold admitter (ThLRU)
	// refused an over-threshold object.
	ReasonSizeThreshold
	// ReasonDoorkeeper: first sighting within the doorkeeper period —
	// the one-hit-wonder filter absorbed the object.
	ReasonDoorkeeper
	// ReasonFrequency: seen before, but the sketched frequency is still
	// below the admission threshold.
	ReasonFrequency
	// ReasonPredictedReuse: the MDN predicts the next arrival beyond
	// the object's expected cache lifetime.
	ReasonPredictedReuse
)

// NumReasons is how many reject reasons there are; they run from 1 to
// NumReasons.
const NumReasons = int(ReasonPredictedReuse)

var reasonNames = [NumReasons + 1]string{
	ReasonTooLarge:       "too_large",
	ReasonNoVictim:       "no_victim",
	ReasonPolicy:         "policy",
	ReasonSizeThreshold:  "size_threshold",
	ReasonDoorkeeper:     "doorkeeper",
	ReasonFrequency:      "frequency",
	ReasonPredictedReuse: "predicted_reuse",
}

// String is the reason's metric name, "" for the zero Reason.
func (r Reason) String() string { return reasonNames[r] }

// CacheObs is one cache shard's counters: occupancy gauges plus the
// request, byte and eviction counters operators watch. Every shard
// counts into one from construction (a handful of atomic ops per
// request, no allocation), and the engine's cache.Stats is read from
// its counters, so METRICS and cache.Stats are the same numbers.
type CacheObs struct {
	// UsedBytes and Objects track live occupancy.
	UsedBytes Gauge
	Objects   Gauge
	// AdmitBytes is what the admission front's doorkeeper and count-min
	// sketch hold, set when they are sized and at every rebuild (0
	// without a frequency front).
	AdmitBytes Gauge

	Requests Counter
	Hits     Counter
	// ReqBytes and HitBytes sum the sizes of the lookups and of the
	// hits: their ratio is the byte hit ratio.
	ReqBytes  Counter
	HitBytes  Counter
	Evictions Counter
	// OneHitWonders counts evicted objects that were never hit between
	// admission and eviction.
	OneHitWonders Counter
	Admissions    Counter
	Rejections    Counter
	Sets          Counter

	// Rejects[r-1] counts the admission rejects of reason r: an array
	// indexed by reason (not a map), so a reject is a single atomic op
	// and snapshots register in a fixed order. The counters sum to
	// Rejections exactly because every reject bumps exactly one of them.
	Rejects [NumReasons]Counter
}

// AdmitReject counts one reject of the given reason, which must be
// one of the Reason constants.
func (co *CacheObs) AdmitReject(reason Reason) {
	co.Rejections.Inc()
	co.Rejects[reason-1].Inc()
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

// numCacheMetrics is how many metrics a CacheObs registers: twelve,
// then one per reject reason.
const numCacheMetrics = 12 + NumReasons

// metrics is the one list of CacheObs metric names, in registration
// order. Both Register methods walk it, so the plain and the merged
// sharded names are the same, in the same order.
func (co *CacheObs) metrics() [numCacheMetrics]cacheMetric {
	m := [numCacheMetrics]cacheMetric{
		{suffix: "used_bytes", g: &co.UsedBytes},
		{suffix: "objects", g: &co.Objects},
		{suffix: "admit_bytes", g: &co.AdmitBytes},
		{suffix: "requests", c: &co.Requests},
		{suffix: "hits", c: &co.Hits},
		{suffix: "req_bytes", c: &co.ReqBytes},
		{suffix: "hit_bytes", c: &co.HitBytes},
		{suffix: "evictions", c: &co.Evictions},
		{suffix: "one_hit_wonders", c: &co.OneHitWonders},
		{suffix: "admissions", c: &co.Admissions},
		{suffix: "rejections", c: &co.Rejections},
		{suffix: "sets", c: &co.Sets},
	}
	for i := range co.Rejects {
		m[12+i] = cacheMetric{suffix: "admit_rejects." + Reason(i+1).String(), c: &co.Rejects[i]}
	}
	return m
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

// Shard returns shard i's metric bundle, for that shard of the engine
// to count into (cache.Sharded.SetShardObs).
func (so *ShardedCacheObs) Shard(i int) *CacheObs { return so.shards[i] }

// Register adds the merged totals under prefix.* (same names a plain
// CacheObs registers, so dashboards and reconciliation tests work
// unchanged against either engine), then each shard's bundle under
// prefix.shard<N>.*, in shard order. A total is the sum over shards,
// folded at snapshot time.
func (so *ShardedCacheObs) Register(r *Registry, prefix string) {
	// A zero bundle supplies the suffixes; each total reads the shards'.
	shards := make([][numCacheMetrics]cacheMetric, len(so.shards))
	for j, s := range so.shards {
		shards[j] = s.metrics()
	}
	for i, m := range new(CacheObs).metrics() {
		r.RegisterFunc(prefix+"."+m.suffix, func() int64 {
			var t int64
			for j := range shards {
				t += shards[j][i].load()
			}
			return t
		})
	}
	for i, s := range so.shards {
		s.Register(r, fmt.Sprintf("%s.shard%d", prefix, i))
	}
}
