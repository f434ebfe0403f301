package raven

import (
	"raven/internal/cache"
	"raven/internal/core"
	"raven/internal/experiments"
	"raven/internal/policy"
	"raven/internal/sim"
	"raven/internal/trace"
)

// Core request/trace types.
type (
	// Key identifies a cached object.
	Key = trace.Key
	// Request is one object request in a trace.
	Request = trace.Request
	// Trace is a time-ordered request sequence.
	Trace = trace.Trace
	// SynthConfig parameterizes synthetic renewal workloads (§3.5).
	SynthConfig = trace.SynthConfig
	// ProductionConfig parameterizes production-like workloads.
	ProductionConfig = trace.ProductionConfig
	// Interarrival selects a synthetic interarrival distribution.
	Interarrival = trace.Interarrival
)

// Synthetic interarrival distributions.
const (
	Poisson = trace.Poisson
	Uniform = trace.Uniform
	Pareto  = trace.Pareto
)

// Production-like workload presets standing in for the paper's traces.
const (
	Wiki18      = trace.Wiki18
	Wiki19      = trace.Wiki19
	Wikimedia19 = trace.Wikimedia19
	TwitterC17  = trace.TwitterC17
	TwitterC29  = trace.TwitterC29
	TwitterC52  = trace.TwitterC52
)

// Cache and policy types.
type (
	// Policy is the eviction-policy interface every algorithm in this
	// repository implements.
	Policy = cache.Policy
	// Cache is the cache engine: one or more independent shards,
	// memcached style, each coupling its own Policy instance with a byte
	// budget, statistics and a lock. It is safe for concurrent use.
	Cache = cache.Sharded
	// ShardFactory builds one policy per shard (see PolicyFactory.PerShard).
	ShardFactory = cache.ShardFactory
	// Stats holds hit/byte counters.
	Stats = cache.Stats
	// PolicyOptions configures construction of named policies.
	PolicyOptions = policy.Options
	// PolicyFactory builds fresh, independent instances of one
	// registered policy; PerShard adapts it to a ShardFactory.
	PolicyFactory = policy.Factory
	// RavenConfig configures the Raven policy itself.
	RavenConfig = core.Config
	// Raven is the paper's learning eviction policy.
	Raven = core.Raven
	// Goal selects Raven's optimization target (OHR or BHR).
	Goal = core.Goal
	// Decision is the typed result of an admission check: whether the
	// object may be inserted and, on refusal, the rejecting stage's
	// reason, one of a closed set (exported per reason over METRICS as
	// cache.admit_rejects.<reason>; zero on accept).
	Decision = cache.Decision
	// Admitter is the typed admission seam — an optional Policy
	// extension consulted before each miss is inserted.
	Admitter = cache.Admitter
	// AdmissionOptions selects and tunes the admission front-end
	// pipeline (off | doorkeeper | learned).
	AdmissionOptions = policy.AdmissionOptions
)

// Admission front-end modes for AdmissionOptions.Mode.
const (
	AdmitOff        = policy.AdmitOff
	AdmitDoorkeeper = policy.AdmitDoorkeeper
	AdmitLearned    = policy.AdmitLearned
)

// Raven optimization goals (§3.4).
const (
	GoalBHR = core.GoalBHR
	GoalOHR = core.GoalOHR
)

// Simulation types.
type (
	// SimOptions configures a simulation run.
	SimOptions = sim.Options
	// SimResult is a run's measurements.
	SimResult = sim.Result
	// NetModel is the §5.1.4 latency/traffic model.
	NetModel = sim.NetModel
)

// SyntheticTrace generates a synthetic renewal-superposition workload.
func SyntheticTrace(cfg SynthConfig) *Trace { return trace.Synthetic(cfg) }

// ProductionTrace generates one of the six production-like workloads
// at the given scale (1.0 = default laptop scale).
func ProductionTrace(preset trace.ProductionPreset, scale float64, seed int64) *Trace {
	return trace.ProductionTrace(preset, scale, seed)
}

// NewRaven builds the paper's policy. cfg.TrainWindow must be set; see
// RavenConfig for the remaining knobs and their §4/§5.1.3 defaults.
func NewRaven(cfg RavenConfig) *Raven { return core.New(cfg) }

// NewPolicy builds any registered policy ("lru", "lrb", "lhr",
// "belady", "raven", ...) by name.
func NewPolicy(name string, opts PolicyOptions) (Policy, error) {
	return policy.New(name, opts)
}

// MustNewPolicy is NewPolicy for static names; it panics on error.
func MustNewPolicy(name string, opts PolicyOptions) Policy {
	return policy.MustNew(name, opts)
}

// LookupPolicy resolves a registered policy name to its factory, for
// callers that need several identically-configured instances (one per
// shard, one per experiment arm) without re-resolving the name.
func LookupPolicy(name string) (PolicyFactory, error) { return policy.Lookup(name) }

// PolicyNames lists every registered policy.
func PolicyNames() []string { return policy.Names() }

// NewCache couples a policy with a one-shard byte-capacity cache. It
// panics if capacity is not positive or p is nil.
func NewCache(capacity int64, p Policy) *Cache { return cache.New(capacity, p) }

// NewShardedCache splits capacity over the given number of shards
// (rounded up to a power of two), building one policy per shard via
// newPolicy — typically LookupPolicy(name).PerShard(opts, shards).
// Keys map to shards by a deterministic hash; each shard runs under
// its own lock, so concurrent requests for different shards never
// contend.
func NewShardedCache(capacity int64, shards int, newPolicy ShardFactory) (*Cache, error) {
	return cache.NewSharded(capacity, shards, newPolicy)
}

// Simulate replays a trace through a fresh one-shard cache driven by p
// and returns the measurements. It fails if opts.Capacity is not
// positive or p is nil.
func Simulate(tr *Trace, p Policy, opts SimOptions) (*SimResult, error) {
	return sim.Run(tr, 1, cache.SingleFactory(p), opts)
}

// CDNNetModel returns the paper's CDN latency model (10 ms edge RTT,
// 100 ms origin RTT, 8 Gbps).
func CDNNetModel() *NetModel { return sim.CDNModel() }

// InMemoryNetModel returns the paper's in-memory latency model (100 µs
// memory, 10 ms database).
func InMemoryNetModel() *NetModel { return sim.InMemoryModel() }

// ExperimentIDs lists every reproducible table/figure; cmd/raven-exp
// regenerates one with -exp <id>.
func ExperimentIDs() []string { return append([]string(nil), experiments.All...) }
