// Package policy provides the registry that builds any of the
// repository's eviction policies by name — the 14 baselines of the
// paper's Fig. 21, the offline optima, and Raven itself — plus the
// size-threshold admission wrapper used by the ThLRU/ThS4LRU variants.
package policy

import (
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"raven/internal/cache"
	"raven/internal/core"
	"raven/internal/obs"
	"raven/internal/policy/adaptsize"
	"raven/internal/policy/belady"
	"raven/internal/policy/freq"
	"raven/internal/policy/hyperbolic"
	"raven/internal/policy/lecar"
	"raven/internal/policy/lhd"
	"raven/internal/policy/lhr"
	"raven/internal/policy/lrb"
	"raven/internal/policy/lru"
	"raven/internal/policy/marker"
	"raven/internal/policy/parrot"
	"raven/internal/policy/random"
	"raven/internal/policy/ucb"
)

// Options carries the context policies need at construction time.
type Options struct {
	// Capacity is the cache size in bytes (used by segmented LRU
	// quotas, admission thresholds, and AdaptSize).
	Capacity int64
	// TrainWindow is the retraining period in ticks for the learning
	// policies (LRB's memory window, Raven's training window).
	TrainWindow int64
	// Seed makes stochastic policies deterministic.
	Seed int64
	// Workers is Raven's goroutine fan-out for training (0 or 1 =
	// serial); it sets Raven's Train.Workers when that is zero. Results
	// are bit-identical for every value, so it only changes throughput.
	// Eviction decisions are serial whatever its value.
	Workers int
	// CheckpointDir, when non-empty, makes Raven persist its model as
	// rotated, checksummed, atomically-written checkpoint generations
	// and resume from the newest valid one at startup (corrupt
	// generations are skipped). CheckpointEvery sets the save cadence
	// in completed trainings (0 = every training).
	CheckpointDir   string
	CheckpointEvery int
	// Obs, when non-nil, receives Raven's model-lifecycle metrics
	// (rollbacks, health transitions, checkpoint accounting).
	Obs *obs.RavenObs
	// ScoreCache enables Raven's cached-score eviction fast path;
	// Inference32 runs every prediction of Raven's eviction decisions
	// in float32 (training stays float64). DecisionBudget arms a
	// per-decision wall clock deadline: an overrun serves the LRU
	// fallback and counts toward health degradation (0 keeps the clock
	// off the decision path). See DESIGN.md "Inference fast path & SLO".
	ScoreCache     bool
	Inference32    bool
	DecisionBudget time.Duration
	// Admission configures the admission front-end attached in front of
	// the built policy (admission.go). The zero value is off: nothing
	// is wrapped and replays are bit-identical to an admission-less
	// build. Derived per shard/node exactly like Seed: the pipeline is
	// built per instance from the shard's own Capacity and Seed.
	Admission AdmissionOptions
	// Raven optionally overrides the default Raven configuration; its
	// TrainWindow/Goal/Seed are filled from this Options if zero.
	Raven *core.Config
}

// entries approximates how many objects fit in the cache (LeCaR ghost
// lists) from Capacity.
func (o Options) entries() int {
	if o.Capacity > 0 && o.Capacity < 1<<20 {
		return int(o.Capacity)
	}
	return 4096
}

func (o Options) window() int64 {
	if o.TrainWindow > 0 {
		return o.TrainWindow
	}
	return 1 << 20
}

func (o Options) ravenConfig(goal core.Goal) core.Config {
	var cfg core.Config
	if o.Raven != nil {
		cfg = *o.Raven
	}
	cfg.Goal = goal
	if cfg.TrainWindow == 0 {
		cfg.TrainWindow = o.window()
	}
	if cfg.SampleBudgetBytes == 0 && o.Capacity > 0 {
		cfg.SampleBudgetBytes = 5 * o.Capacity // §4.1
	}
	if cfg.Seed == 0 {
		cfg.Seed = o.Seed + 77
	}
	if cfg.Train.Workers == 0 {
		cfg.Train.Workers = o.Workers
	}
	if cfg.Checkpoint.Dir == "" {
		cfg.Checkpoint.Dir = o.CheckpointDir
	}
	if cfg.Checkpoint.Every == 0 {
		cfg.Checkpoint.Every = o.CheckpointEvery
	}
	if cfg.Obs == nil {
		cfg.Obs = o.Obs
	}
	if !cfg.ScoreCache {
		cfg.ScoreCache = o.ScoreCache
	}
	if !cfg.Inference32 {
		cfg.Inference32 = o.Inference32
	}
	if cfg.DecisionBudget == 0 {
		cfg.DecisionBudget = o.DecisionBudget
	}
	return cfg
}

// perNodeSeedStride separates the seed spaces of cluster nodes. It is
// far above any plausible shard count, so the composed derivation
// (PerNode then PerShard's +shardIndex) never collides across nodes.
const perNodeSeedStride = 1 << 20

// PerNode derives one cluster node's Options from fleet-wide options:
// a node-strided seed and, when checkpointing is on, a per-node
// checkpoint subdirectory so nodes never overwrite each other's
// generations. It composes with Factory.PerShard — node node's shard
// shard gets seed o.Seed + node*stride + shard — and a single-node
// fleet returns o unchanged, keeping the standalone layout (and resume
// of standalone checkpoints) bit-identical.
func (o Options) PerNode(node, nodes int) Options {
	if nodes <= 1 {
		return o
	}
	no := o
	no.Seed = o.Seed + int64(node)*perNodeSeedStride
	if o.CheckpointDir != "" {
		no.CheckpointDir = filepath.Join(o.CheckpointDir, fmt.Sprintf("node%d", node))
	}
	return no
}

// Factory builds one fresh, fully independent policy instance from
// Options. Every registered policy is a Factory, so callers that need
// N identically-configured instances — the sharded cache engine builds
// one per shard — hold the Factory once and invoke it repeatedly
// instead of re-resolving the name.
type Factory func(o Options) (cache.Policy, error)

// PerShard adapts the factory to the sharded engine's constructor
// signature: each shard gets an instance built from o with the shard's
// own byte capacity, a deterministically derived RNG seed
// (o.Seed + shardIndex, so shard 0 of a 1-shard engine is bit-identical
// to an instance built from o itself), and — when checkpointing is on
// and shards > 1 — a per-shard checkpoint subdirectory so shards never
// overwrite each other's generations. A single-shard engine keeps
// o.CheckpointDir unchanged.
// Pass the same shard count the engine is built with; engines that
// round the count up to a power of two stay consistent because
// rounding never crosses the shards<=1 boundary.
func (f Factory) PerShard(o Options, shards int) cache.ShardFactory {
	return func(shard int, capacity int64) (cache.Policy, error) {
		so := o
		so.Capacity = capacity
		so.Seed = o.Seed + int64(shard)
		if o.CheckpointDir != "" && shards > 1 {
			so.CheckpointDir = filepath.Join(o.CheckpointDir, fmt.Sprintf("shard%d", shard))
		}
		return f(so)
	}
}

// builders maps policy names to registered factories.
var builders = map[string]Factory{}

// Register adds a named policy constructor to the registry and returns
// it as a reusable Factory. Registering a taken name panics: two
// packages claiming one name is a programmer error that must fail
// loudly at init time, not shadow silently. Every registered factory
// is post-processed through Options.Admission (admission.go), so the
// front-end composes with any policy without per-policy wiring.
func Register(name string, build func(o Options) (cache.Policy, error)) Factory {
	if _, dup := builders[name]; dup {
		panic(fmt.Sprintf("policy: duplicate registration of %q", name))
	}
	f := Factory(func(o Options) (cache.Policy, error) {
		p, err := build(o)
		if err != nil {
			return nil, err
		}
		return o.Admission.front(p, o)
	})
	builders[name] = f
	return f
}

// ok wraps an error-free constructor as a Factory body.
func ok(build func(o Options) cache.Policy) func(o Options) (cache.Policy, error) {
	return func(o Options) (cache.Policy, error) { return build(o), nil }
}

func init() {
	Register("lru", ok(func(o Options) cache.Policy { return lru.New() }))
	Register("fifo", ok(func(o Options) cache.Policy { return lru.NewFIFO() }))
	Register("random", ok(func(o Options) cache.Policy { return random.New(o.Seed) }))
	Register("lfu", ok(func(o Options) cache.Policy { return freq.NewLFU() }))
	Register("lfuda", ok(func(o Options) cache.Policy { return freq.NewLFUDA() }))
	Register("gdsf", ok(func(o Options) cache.Policy { return freq.NewGDSF() }))
	Register("lruk", ok(func(o Options) cache.Policy { return freq.NewLRUK(2) }))
	Register("s4lru", ok(func(o Options) cache.Policy { return lru.NewSLRU(4, o.Capacity) }))
	Register("thlru", ok(func(o Options) cache.Policy {
		return WithSizeThreshold(lru.New(), o.Capacity/50)
	}))
	Register("ths4lru", ok(func(o Options) cache.Policy {
		return WithSizeThreshold(lru.NewSLRU(4, o.Capacity), o.Capacity/50)
	}))
	Register("hyperbolic", ok(func(o Options) cache.Policy {
		return hyperbolic.New(o.Seed, hyperbolic.WithSizeAware())
	}))
	Register("lhd", ok(func(o Options) cache.Policy { return lhd.New(o.Seed) }))
	Register("lecar", ok(func(o Options) cache.Policy { return lecar.New(o.Seed, o.entries()) }))
	Register("ucb", ok(func(o Options) cache.Policy { return ucb.New(o.Seed) }))
	Register("lrb", ok(func(o Options) cache.Policy {
		return lrb.New(lrb.Config{MemoryWindow: o.window(), Seed: o.Seed})
	}))
	Register("lhr", ok(func(o Options) cache.Policy { return lhr.New(lhr.GoalOHR, o.Seed) }))
	Register("lhr-bhr", ok(func(o Options) cache.Policy { return lhr.New(lhr.GoalBHR, o.Seed) }))
	Register("lhr-adm", ok(func(o Options) cache.Policy {
		return lhr.New(lhr.GoalOHR, o.Seed, lhr.WithAdmission())
	}))
	Register("adaptsize", ok(func(o Options) cache.Policy { return adaptsize.New(o.Capacity, o.Seed) }))
	Register("marker", ok(func(o Options) cache.Policy { return marker.New(o.Seed) }))
	Register("predictivemarker", ok(func(o Options) cache.Policy {
		return marker.NewPredictive(o.Seed, marker.NewEWMAPredictor(0.3))
	}))
	Register("parrot", ok(func(o Options) cache.Policy { return parrot.New(parrot.Config{Seed: o.Seed}) }))
	Register("belady", ok(func(o Options) cache.Policy { return belady.New() }))
	Register("belady-size", ok(func(o Options) cache.Policy {
		return belady.NewSize(o.Seed, 64)
	}))
	Register("raven", ok(func(o Options) cache.Policy {
		return core.New(o.ravenConfig(core.GoalBHR))
	}))
	Register("raven-ohr", ok(func(o Options) cache.Policy {
		return core.New(o.ravenConfig(core.GoalOHR))
	}))
}

// Lookup resolves a registered policy name to its Factory.
func Lookup(name string) (Factory, error) {
	f, ok := builders[name]
	if !ok {
		return nil, fmt.Errorf("policy: unknown policy %q (known: %v)", name, Names())
	}
	return f, nil
}

// New builds a policy by name: a thin wrapper over Lookup + Factory.
func New(name string, o Options) (cache.Policy, error) {
	f, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	return f(o)
}

// MustNew is New for callers with static names; it panics on error.
func MustNew(name string, o Options) cache.Policy {
	p, err := New(name, o)
	if err != nil {
		panic(err)
	}
	return p
}

// Names lists all registered policy names, sorted.
func Names() []string {
	out := make([]string, 0, len(builders))
	for n := range builders {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Baselines14 lists the paper's 14 baseline algorithms (Fig. 21).
var Baselines14 = []string{
	"lru", "ths4lru", "random", "lfuda", "lruk", "hyperbolic", "gdsf",
	"fifo", "thlru", "lrb", "ucb", "lhd", "lhr", "lecar",
}

// Best8 lists the eight best-performing algorithms shown in Fig. 9/10.
var Best8 = []string{
	"lrb", "lhr", "lhd", "gdsf", "hyperbolic", "lfuda", "lru", "ths4lru",
}
