package sim

import (
	"fmt"
	"time"

	"raven/internal/cache"
	"raven/internal/stats"
	"raven/internal/trace"
)

// Options configures a simulation run.
type Options struct {
	Capacity int64

	// Net enables the latency/traffic/throughput model (nil = off).
	Net *NetModel

	// RankOrderEvery enables rank-order error measurement against the
	// Belady oracle: at every n-th eviction (1 = all; 0 disables) the
	// victim's true rank among the objects cached on its shard is
	// recorded (0 = its next arrival really is the farthest).
	RankOrderEvery int

	// WarmupFrac excludes the first fraction of requests from all
	// reported statistics (hit ratios, latency, traffic, rank errors).
	// The cache and policy still process those requests — learning
	// policies train during warmup — matching Appendix C.1's
	// train-on-first-half / evaluate-on-second-half methodology. Must
	// be in [0, 1).
	WarmupFrac float64

	// Seed drives the measurement sampling (not the policy).
	Seed int64
}

// Result is everything a run measured.
type Result struct {
	// Policy is the display name of the policy under test.
	Policy   string
	Trace    string
	Capacity int64
	// Shards is the engine's shard count (>= 1, a power of two).
	Shards int

	Stats cache.Stats
	OHR   float64
	BHR   float64

	// EvictionNanos summarizes measured per-eviction compute time
	// (Fig. 7, §6.1.1).
	EvictionNanos stats.Summary
	// RankErrors holds the observed rank-order errors (Fig. 3/14,
	// Table 6).
	RankErrors []float64

	Net NetResult

	// Policies holds the policy instances the run built, in shard
	// order, for callers that inspect learned state afterwards (e.g.
	// Raven's training records for Table 7).
	Policies []cache.Policy

	WallTime time.Duration
}

// evictTimer accumulates per-eviction compute time. All shards share
// one timer, so the measurement covers the whole engine (the replay is
// serial, so no synchronization is needed).
type evictTimer struct {
	res *stats.Reservoir
	sum time.Duration
}

// timedPolicy decorates a policy, measuring Victim wall time and
// forwarding the optional Admitter extension.
type timedPolicy struct {
	cache.Policy
	t *evictTimer
}

// Victim times the inner decision. The wall clock here only measures;
// it can reach the decision itself solely through an inner policy's
// DecisionBudget SLO, which replay configurations leave at 0.
func (t *timedPolicy) Victim() (cache.Key, bool) {
	start := time.Now()
	k, ok := t.Policy.Victim()
	d := time.Since(start)
	t.t.sum += d
	t.t.res.Add(float64(d.Nanoseconds()))
	return k, ok
}

func (t *timedPolicy) Admit(req cache.Request) cache.Decision {
	return cache.PolicyAdmit(t.Policy, req)
}

// Run replays tr through a cache engine of opts.Capacity split over
// the given shard count, building one policy per shard via newPolicy:
// policy.Factory.PerShard for a registered name, cache.SingleFactory
// for an instance the caller already holds (one shard only). The trace
// is annotated with oracle next-arrival times on demand.
func Run(tr *trace.Trace, shards int, newPolicy cache.ShardFactory, opts Options) (*Result, error) {
	if !(opts.WarmupFrac >= 0 && opts.WarmupFrac < 1) { // negated so NaN fails too
		return nil, fmt.Errorf("sim: WarmupFrac must be in [0, 1), got %v", opts.WarmupFrac)
	}
	tp := &evictTimer{res: stats.NewReservoir(4096, opts.Seed+1)}
	var policies []cache.Policy
	c, err := cache.NewSharded(opts.Capacity, shards, func(shard int, capacity int64) (cache.Policy, error) {
		p, err := newPolicy(shard, capacity)
		if err != nil || p == nil {
			return nil, err
		}
		policies = append(policies, p)
		return &timedPolicy{Policy: p, t: tp}, nil
	})
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	if !tr.Annotated() {
		tr.AnnotateNext()
	}
	start := time.Now()
	res := &Result{
		Policy: policies[0].Name(), Trace: tr.Name, Capacity: opts.Capacity,
		Shards: c.Shards(), Policies: policies,
	}

	warmIdx := int(opts.WarmupFrac * float64(tr.Len()))

	var now int64
	collecting := warmIdx == 0
	if opts.RankOrderEvery > 0 {
		oracle := NewOracle(tr)
		evictions := 0
		var keyBuf []cache.Key
		// The observer runs with the evicting shard's lock held and ranks
		// the victim against that shard's keys: the policy only chooses
		// victims within its shard.
		c.SetEvictionObserver(func(victim cache.Key, resident func([]cache.Key) []cache.Key) {
			if !collecting {
				return
			}
			evictions++
			if (evictions-1)%opts.RankOrderEvery != 0 {
				return
			}
			keyBuf = resident(keyBuf[:0])
			res.RankErrors = append(res.RankErrors, rankError(oracle, keyBuf, victim, now))
		})
	}

	var lat *stats.Reservoir
	var modelled time.Duration
	var backendBytes int64
	var perBucketBytes []int64
	var perBucketTime []time.Duration
	var prevEvictSum time.Duration
	if opts.Net != nil {
		lat = stats.NewReservoir(8192, opts.Seed+3)
		perBucketBytes = make([]int64, 0, 256)
		perBucketTime = make([]time.Duration, 0, 256)
	}

	bucketReqs := tr.Len()/200 + 1
	var bucketBytes int64
	var bucketTime time.Duration

	for i := range tr.Reqs {
		req := tr.Reqs[i]
		now = req.Time
		if i == warmIdx && warmIdx > 0 {
			// End of warmup: discard everything measured so far.
			collecting = true
			c.ResetStats()
			tp.res = stats.NewReservoir(4096, opts.Seed+4)
			if opts.Net != nil {
				lat = stats.NewReservoir(8192, opts.Seed+5)
				modelled = 0
				backendBytes = 0
				perBucketBytes = perBucketBytes[:0]
				perBucketTime = perBucketTime[:0]
				bucketBytes, bucketTime = 0, 0
			}
		}
		hit := c.Handle(req)
		if !collecting {
			prevEvictSum = tp.sum
			continue
		}
		if opts.Net != nil {
			// Per-request service time plus the eviction compute this
			// request triggered (measured, not modelled).
			evictDelta := tp.sum - prevEvictSum
			prevEvictSum = tp.sum
			d := opts.Net.ServiceTime(hit, req.Size) + evictDelta
			modelled += d
			lat.Add(float64(d.Nanoseconds()))
			if !hit {
				backendBytes += req.Size
				bucketBytes += req.Size
			}
			bucketTime += d
			if (i+1)%bucketReqs == 0 {
				perBucketBytes = append(perBucketBytes, bucketBytes)
				perBucketTime = append(perBucketTime, bucketTime)
				bucketBytes, bucketTime = 0, 0
			}
		}
	}
	res.Stats = c.StatsSnapshot()
	res.OHR = res.Stats.OHR()
	res.BHR = res.Stats.BHR()
	res.EvictionNanos = tp.res.Summary()
	if opts.Net != nil {
		res.Net = summarizeNet(lat, modelled, backendBytes, res.Stats, perBucketBytes, perBucketTime)
	}
	res.WallTime = time.Since(start)
	return res, nil
}

func summarizeNet(lat *stats.Reservoir, modelled time.Duration, backendBytes int64,
	st cache.Stats, bucketBytes []int64, bucketTime []time.Duration) NetResult {
	sum := lat.Summary()
	nr := NetResult{
		AvgLatency:   time.Duration(sum.Mean),
		P90Latency:   time.Duration(sum.P90),
		P99Latency:   time.Duration(sum.P99),
		BackendBytes: backendBytes,
		ModelledTime: modelled,
	}
	secs := modelled.Seconds()
	if secs > 0 {
		nr.AvgTrafficGbps = float64(backendBytes) * 8 / secs / 1e9
		nr.ThroughputGbps = float64(st.ReqBytes) * 8 / secs / 1e9
		nr.ThroughputKRPS = float64(st.Requests) / secs / 1e3
	}
	// P95 of per-bucket backend traffic rate.
	rates := make([]float64, 0, len(bucketBytes))
	for i := range bucketBytes {
		if s := bucketTime[i].Seconds(); s > 0 {
			rates = append(rates, float64(bucketBytes[i])*8/s/1e9)
		}
	}
	if len(rates) > 0 {
		nr.P95TrafficGbps = stats.Percentile(rates, 95)
	}
	return nr
}

// rankError computes the victim's true farthest-next-arrival rank
// among the cached keys (0 = the policy matched Belady exactly).
func rankError(o *Oracle, keys []cache.Key, victim cache.Key, now int64) float64 {
	vNext := o.NextAfter(victim, now)
	rank := 0
	for _, k := range keys {
		if k == victim {
			continue
		}
		if o.NextAfter(k, now) > vNext {
			rank++
		}
	}
	return float64(rank)
}
